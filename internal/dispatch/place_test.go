package dispatch

import "testing"

func TestPickReplica(t *testing.T) {
	reps := []ReplicaLoad{
		{Head: DeviceLoad{Queued: 0}, Batches: 5, Live: false}, // dead despite coolest head
		{Head: DeviceLoad{Queued: 1}, Batches: 9, Live: true},
		{Head: DeviceLoad{Queued: 1}, Batches: 3, Live: true}, // round-robin tilt wins
		{Head: DeviceLoad{Queued: 2}, Batches: 0, Live: true},
	}
	if got := PickReplica(reps); got != 2 {
		t.Fatalf("PickReplica = %d, want 2", got)
	}
	if got := PickReplica([]ReplicaLoad{{Live: false}}); got != -1 {
		t.Fatalf("no live replica: %d, want -1", got)
	}
}

func TestPlacementOrder(t *testing.T) {
	devs := []DeviceLoad{
		{Queued: 3},
		{Queued: 0, BusyNS: 9},
		{Queued: 0, BusyNS: 1},
		{Dead: true},
		{Queued: 1},
	}
	got := PlacementOrder(devs)
	want := []int{2, 1, 4, 0}
	if len(got) != len(want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}
