package dispatch

import "sort"

// DeviceLoad is one device's scheduling-relevant state, snapshotted by
// the fleet under its lock.
type DeviceLoad struct {
	Queued int     // outstanding batches
	BusyNS float64 // cumulative simulated busy time (tie-break)
	Dead   bool
}

// ReplicaLoad is one replica placement's scheduling-relevant state: the
// load of its head device (where batches enter the pipeline), its
// lifetime dispatch count, and whether every device of the placement is
// alive.
type ReplicaLoad struct {
	Head    DeviceLoad
	Batches int64
	Live    bool
}

// PickReplica returns the index of the live replica whose head device
// has the fewest outstanding batches — ties to the fewest lifetime
// dispatches (a round-robin tilt), then the least busy head — or -1
// when no replica is live.
func PickReplica(reps []ReplicaLoad) int {
	best := -1
	for i, r := range reps {
		if !r.Live {
			continue
		}
		if best < 0 || lessLoaded(r, reps[best]) {
			best = i
		}
	}
	return best
}

// lessLoaded orders replicas for placement.
func lessLoaded(a, b ReplicaLoad) bool {
	if a.Head.Queued != b.Head.Queued {
		return a.Head.Queued < b.Head.Queued
	}
	if a.Batches != b.Batches {
		return a.Batches < b.Batches
	}
	return a.Head.BusyNS < b.Head.BusyNS
}

// PlacementOrder returns the indices of the live devices ordered
// least-loaded first (stable), the order replica pinning consumes
// devices in: the first replica lands on the coolest devices.
func PlacementOrder(devs []DeviceLoad) []int {
	var order []int
	for i, d := range devs {
		if !d.Dead {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := devs[order[a]], devs[order[b]]
		if da.Queued != db.Queued {
			return da.Queued < db.Queued
		}
		return da.BusyNS < db.BusyNS
	})
	return order
}
