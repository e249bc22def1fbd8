// Package chaos is the in-process multi-node fault-injection harness
// behind the cluster robustness suite and rtmap-bench -cluster.
//
// Start boots N real rtmap-serve nodes on loopback listeners plus a
// cluster.Router fronting them, with a cluster.FaultInjector spliced
// into the router's transport. Faults come in two flavors: Kill/Restart
// hard-stop and revive an actual node (the listener closes, so the
// router sees genuine ECONNREFUSED dials), while Inject arms wire-level
// faults — partition, hang, slow, flap — at the router's transport
// without touching the node.
//
// Drive generates closed-loop load through the router (internal/loadgen
// paces, posts and names the outcomes) and checks the two cluster
// invariants the chaos suite gates on: accepted requests are never
// dropped (every non-rejected answer is a well-formed 200), and results
// are bit-exact no matter which node, retry or hedge served them.
package chaos
