package main

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestBlockCountsGiveEverySelectionARequest(t *testing.T) {
	counts := blockCounts()
	total := 0
	for i, c := range counts {
		if c < 1 {
			t.Errorf("%s gets no request in a block", serveSelections[i])
		}
		if i > 0 && c > counts[i-1] {
			t.Errorf("rank %d (%d) outdraws rank %d (%d)", i+1, c, i, counts[i-1])
		}
		total += c
	}
	if total != blockSize {
		t.Errorf("block holds %d requests, want %d", total, blockSize)
	}
}

func TestScriptIsSeededAndKeepsTheMix(t *testing.T) {
	a, b, c := newScript(1), newScript(1), newScript(2)
	differ := false
	seen := make(map[string]int)
	for i := 0; i < 2*blockSize; i++ {
		if a.at(i) != b.at(i) {
			t.Fatalf("request %d differs under one seed", i)
		}
		if a.at(i) != c.at(i) {
			differ = true
		}
		if i < blockSize {
			seen[a.at(i)]++
		}
	}
	if !differ {
		t.Error("seeds 1 and 2 gave the same order")
	}
	for i, n := range blockCounts() {
		if seen[serveSelections[i]] != n {
			t.Errorf("%s: %d requests in block 0, want %d", serveSelections[i], seen[serveSelections[i]], n)
		}
	}
	// The seed reorders rounds and swaps tenants, but every block pairs
	// the same requests.
	rounds := func(s *script, k int) map[string]int {
		m := make(map[string]int)
		for i := k * blockSize; i < (k+1)*blockSize; i += serveClients {
			pair := []string{s.at(i), s.at(i + 1)}
			sort.Strings(pair)
			m[strings.Join(pair, "|")]++
		}
		return m
	}
	if !reflect.DeepEqual(rounds(a, 0), rounds(c, 1)) {
		t.Error("blocks of different seeds pair different requests")
	}
}

func TestSplitAndSpliceRoundTrip(t *testing.T) {
	all := []byte("[\n{\n  \"name\": \"a\",\n  \"rows\": [\n    1\n  ]\n},\n{\n  \"name\": \"b\"\n}\n]\n")
	docs, err := splitJSONArray(all)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 || docs[0].name != "a" || docs[1].name != "b" {
		t.Fatalf("split = %+v", docs)
	}
	if got := spliceJSONArray([][]byte{docs[0].raw, docs[1].raw}); !bytes.Equal(got, all) {
		t.Errorf("splice(split(x)) != x:\n%s", got)
	}
	for _, bad := range []string{"", "[\n]\n", "[\n{\n  \"name\": \"a\"\n", "{}"} {
		if _, err := splitJSONArray([]byte(bad)); err == nil {
			t.Errorf("%q: want an error", bad)
		}
	}
}
