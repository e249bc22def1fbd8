//go:build linux

package rtmap

import (
	"os"
	"strconv"
	"syscall"
	"testing"
	"unsafe"
)

// schedIdle is Linux's SCHED_IDLE policy: a thread under it runs only when
// no ordinary thread wants its CPU, and gives the CPU up as soon as one does.
const schedIdle = 5

// TestMain runs this package's tests under SCHED_IDLE. They are the suite's
// heaviest work: every cmd/ tool built and run, a served model driven by
// the load generator, whole ResNet-18 compiles. None of them times itself
// against the wall clock, but `go test ./...` runs them beside other
// packages' tests that do, such as benchmark's slice schedule, which needs
// a CPU for a quarter of a second the moment it asks for one. Under
// SCHED_IDLE this package takes only the CPU those tests leave idle.
func TestMain(m *testing.M) {
	yieldCPU()
	os.Exit(m.Run())
}

// yieldCPU puts every thread of the process under SCHED_IDLE. Linux keeps
// the policy per thread, and a new thread or child process inherits it
// from the thread that starts it, so once every running thread is moved,
// everything started later is too. A thread started while the list is
// walked is caught by the next pass.
func yieldCPU() {
	var param int32 // struct sched_param{sched_priority: 0}
	done := map[int]bool{}
	for {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return
		}
		moved := 0
		for _, task := range tasks {
			tid, err := strconv.Atoi(task.Name())
			if err != nil || done[tid] {
				continue
			}
			done[tid] = true
			moved++
			syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, uintptr(tid), schedIdle, uintptr(unsafe.Pointer(&param)))
		}
		if moved == 0 {
			return
		}
	}
}
