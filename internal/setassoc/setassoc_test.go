package setassoc

import "testing"

// The lock-step differentials in internal/cache and internal/tlb are
// what hold these scans to the old way-struct code; this names the
// tie-breaks they rest on, one case each.
func TestScans(t *testing.T) {
	const k = 7 // key 7 is tag 8
	for _, tc := range []struct {
		name       string
		tags, lrus []uint64
		find       int  // Find(tags, k+1)
		victim     int  // Victim(tags, lrus)
		place      int  // Place(tags, lrus, k+1)
		present    bool // ... and its second result
	}{
		{"absent, full: first of the least LRU", []uint64{3, 4, 5, 6}, []uint64{9, 2, 2, 5}, -1, 1, 1, false},
		{"absent: first invalid way beats any LRU", []uint64{3, 0, 5, 0}, []uint64{1, 8, 0, 9}, -1, 1, 1, false},
		{"flags are not part of the tag", []uint64{3, 8 | FlagPrefetched | FlagDirty, 5, 6}, []uint64{4, 3, 2, 1}, 1, 3, 1, true},
		{"duplicate: the lowest way answers", []uint64{3, 8, 5, 8}, []uint64{4, 3, 2, 1}, 1, 3, 1, true},
		{"invalid way below the key: Place stops there", []uint64{0, 4, 8, 6}, []uint64{4, 3, 2, 1}, 2, 0, 0, false},
		{"one way", []uint64{8}, []uint64{1}, 0, 0, 0, true},
	} {
		if got := Find(tc.tags, k+1); got != tc.find {
			t.Errorf("%s: Find = %d, want %d", tc.name, got, tc.find)
		}
		if got := Victim(tc.tags, tc.lrus); got != tc.victim {
			t.Errorf("%s: Victim = %d, want %d", tc.name, got, tc.victim)
		}
		if got, present := Place(tc.tags, tc.lrus, k+1); got != tc.place || present != tc.present {
			t.Errorf("%s: Place = %d, %v, want %d, %v", tc.name, got, present, tc.place, tc.present)
		}
	}
}
