package main

import "testing"

func TestSubSeedsNonzeroAndDisjoint(t *testing.T) {
	seen := map[int64]int64{}
	for seed := int64(-20); seed <= 20; seed++ {
		for _, s := range subSeeds(seed, 4) {
			if s == 0 {
				t.Fatalf("seed %d derives kernel seed 0", seed)
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("seeds %d and %d both derive kernel seed %d", prev, seed, s)
			}
			seen[s] = seed
		}
	}
	a, b := subSeeds(7, 3), subSeeds(7, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("subSeeds is not a function of its input: %v vs %v", a, b)
		}
	}
}
