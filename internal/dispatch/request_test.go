package dispatch

import "testing"

// A 50:30:20 mix hits its exact counts over 10 and over 100 slots, and
// interleaves: no class runs more than twice in a row, and every class
// has appeared before the schedule is a third through.
func TestMixSchedule(t *testing.T) {
	weights := []int{50, 30, 20}
	for _, slots := range []int{10, 100} {
		sched := MixSchedule(weights, slots)
		if len(sched) != slots {
			t.Fatalf("%d slots: schedule has %d entries", slots, len(sched))
		}
		counts := make([]int, len(weights))
		first := []int{-1, -1, -1}
		run := 0
		for i, c := range sched {
			counts[c]++
			if first[c] < 0 {
				first[c] = i
			}
			if i > 0 && sched[i-1] == c {
				run++
			} else {
				run = 1
			}
			if run > 2 {
				t.Errorf("%d slots: class %d fills slots %d-%d back to back: %v", slots, c, i-2, i, sched)
			}
		}
		for c, w := range weights {
			if want := w * slots / 100; counts[c] != want {
				t.Errorf("%d slots: class %d got %d slots, want %d", slots, c, counts[c], want)
			}
			if first[c] < 0 || first[c] >= slots/3 {
				t.Errorf("%d slots: class %d first appears at slot %d: %v", slots, c, first[c], sched)
			}
		}
	}
	if got := MixSchedule([]int{7}, 3); len(got) != 3 || got[0]+got[1]+got[2] != 0 {
		t.Errorf("one class must fill every slot, got %v", got)
	}
}
