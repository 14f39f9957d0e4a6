package main

import (
	"sort"
	"testing"
	"time"
)

// Every window of one length learns on the same populations; the seed
// only orders them.
func TestLearnCorpusSameSetAnyOrder(t *testing.T) {
	a, b := learnCorpus(1, 30*time.Second), learnCorpus(2, 30*time.Second)
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("a 30s window holds %d and %d populations, want 5", len(a), len(b))
	}
	if again := learnCorpus(1, 30*time.Second); !equal(a, again) {
		t.Fatalf("same seed, different corpus: %v vs %v", a, again)
	}
	sa := append([]uint64(nil), a...)
	sb := append([]uint64(nil), b...)
	sort.Slice(sa, func(i, j int) bool { return sa[i] < sa[j] })
	sort.Slice(sb, func(i, j int) bool { return sb[i] < sb[j] })
	if !equal(sa, sb) {
		t.Fatalf("seeds 1 and 2 learn on different populations: %v vs %v", a, b)
	}
	if n := len(learnCorpus(1, time.Second)); n != 1 {
		t.Fatalf("a 1s window holds %d populations, want 1", n)
	}
}

func equal(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
