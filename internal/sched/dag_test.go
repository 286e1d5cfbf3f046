package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/tso"
)

// Random-DAG property tests: generate arbitrary fork/join trees and check
// the scheduler's fundamental invariants on every queue algorithm under
// adversarial schedules — every node executes exactly once (for exact
// queues), continuations run after all their children's subtrees, and the
// completion propagation matches a sequential evaluation of the same tree.

// dagNode describes one task of a generated tree.
type dagNode struct {
	children []*dagNode
	cont     bool // whether this node forks (has a continuation)
	id       int
}

// genDAG builds a random tree with at most maxNodes nodes.
func genDAG(r *rand.Rand, maxNodes int) (*dagNode, int) {
	count := 0
	var build func(depth int) *dagNode
	build = func(depth int) *dagNode {
		n := &dagNode{id: count}
		count++
		if depth >= 4 || count >= maxNodes || r.Intn(3) == 0 {
			return n
		}
		kids := 1 + r.Intn(3)
		n.cont = true
		for i := 0; i < kids && count < maxNodes; i++ {
			n.children = append(n.children, build(depth+1))
		}
		if len(n.children) == 0 {
			n.cont = false
		}
		return n
	}
	root := build(0)
	return root, count
}

// dagTask converts a node into a TaskFunc that records execution order and
// continuation timing.
func dagTask(n *dagNode, ran []int, contAfter func(n *dagNode)) TaskFunc {
	return func(w *Worker) {
		w.Work(3)
		ran[n.id]++
		if !n.cont {
			return
		}
		kids := make([]TaskFunc, len(n.children))
		for i, ch := range n.children {
			kids[i] = dagTask(ch, ran, contAfter)
		}
		w.Fork(func(w *Worker) {
			w.Work(2)
			contAfter(n)
		}, kids...)
	}
}

// subtreeIDs collects all node ids in a subtree.
func subtreeIDs(n *dagNode, out map[int]bool) {
	out[n.id] = true
	for _, ch := range n.children {
		subtreeIDs(ch, out)
	}
}

func TestQuickRandomDAGs(t *testing.T) {
	algos := []core.Algo{core.AlgoTHE, core.AlgoChaseLev, core.AlgoTHEP, core.AlgoFFTHE, core.AlgoFFCL}
	f := func(seed int64, algoRaw uint8) bool {
		algo := algos[int(algoRaw)%len(algos)]
		r := rand.New(rand.NewSource(seed))
		root, nodes := genDAG(r, 40)

		m := tso.NewMachine(tso.Config{Threads: 3, BufferSize: 4, Seed: seed, DrainBias: 0.2})
		p := NewPool(m, Options{Algo: algo, Delta: 2, Seed: seed})

		ran := make([]int, nodes)
		// Record, for each forking node, which of its subtree's nodes had
		// executed when its continuation ran: the join contract says all
		// of them.
		violation := false
		contAfter := func(n *dagNode) {
			want := map[int]bool{}
			for _, ch := range n.children {
				subtreeIDs(ch, want)
			}
			for id := range want {
				if ran[id] == 0 {
					violation = true
				}
			}
		}
		if _, err := p.Run(dagTask(root, ran, contAfter)); err != nil {
			return false
		}
		if violation {
			return false
		}
		for _, c := range ran {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRandomDAGsTimedEngine runs random DAGs on the timed engine
// with its self-check on (tso.SetTimedCheck), so every step's thread and
// every drain is also recomputed by full scans.
func TestQuickRandomDAGsTimedEngine(t *testing.T) {
	defer tso.SetTimedCheck(tso.SetTimedCheck(true))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		root, nodes := genDAG(r, 60)
		m := tso.NewTimedMachine(tso.Config{Threads: 4, BufferSize: 14, DrainBuffer: true})
		p := NewPool(m, Options{Algo: core.AlgoTHEP, Delta: 7, Seed: seed})
		ran := make([]int, nodes)
		if _, err := p.Run(dagTask(root, ran, func(*dagNode) {})); err != nil {
			return false
		}
		for _, c := range ran {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
