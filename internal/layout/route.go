package layout

import (
	"fmt"

	"qfarith/internal/circuit"
	"qfarith/internal/gate"
)

// Routed is a circuit legalized for a coupling map, with the logical-to-
// physical qubit bookkeeping needed to interpret its outputs.
type Routed struct {
	// Circuit acts on physical qubit indices and contains only gates
	// whose 2q interactions lie on coupling-map edges. Each inserted
	// swap is one SWAP op; transpile lowers it to 3 CX.
	Circuit *circuit.Circuit
	// InitialLayout[l] is the physical qubit initially holding logical
	// qubit l; FinalLayout is the same after all routing SWAPs.
	InitialLayout []int
	FinalLayout   []int
	// SwapCount is the number of SWAPs inserted (each costs 3 CX).
	SwapCount int
}

// Route legalizes c (which must already be lowered so every gate touches
// at most two qubits) for the coupling map, inserting SWAPs along
// shortest paths whenever a 2q gate spans non-adjacent physical qubits.
// initial maps logical to physical qubits; nil means identity. The
// routing heuristic moves the first operand toward the second one edge
// at a time — simple, deterministic, and adequate for the gate-overhead
// accounting this package exists for.
func Route(c *circuit.Circuit, cm *CouplingMap, initial []int) *Routed {
	if cm.NumQubits < c.NumQubits {
		panic(fmt.Sprintf("layout: coupling map has %d qubits, circuit needs %d", cm.NumQubits, c.NumQubits))
	}
	if !cm.IsConnected() {
		panic("layout: coupling map must be connected")
	}
	l2p := make([]int, c.NumQubits)
	if initial == nil {
		for i := range l2p {
			l2p[i] = i
		}
	} else {
		if len(initial) != c.NumQubits {
			panic("layout: initial layout size mismatch")
		}
		seen := make(map[int]bool)
		for _, p := range initial {
			if p < 0 || p >= cm.NumQubits || seen[p] {
				panic("layout: initial layout is not an injection into the device")
			}
			seen[p] = true
		}
		copy(l2p, initial)
	}
	p2l := make([]int, cm.NumQubits)
	for i := range p2l {
		p2l[i] = -1
	}
	for l, p := range l2p {
		p2l[p] = l
	}
	dist := cm.Distances()

	out := circuit.New(cm.NumQubits)
	r := &Routed{InitialLayout: append([]int(nil), l2p...)}

	swapPhys := func(a, b int) {
		// Emit one SWAP on the edge and update the mapping.
		out.Append(gate.SWAP, 0, a, b)
		la, lb := p2l[a], p2l[b]
		p2l[a], p2l[b] = lb, la
		if la >= 0 {
			l2p[la] = b
		}
		if lb >= 0 {
			l2p[lb] = a
		}
		r.SwapCount++
	}

	for _, op := range c.Ops {
		switch op.Kind.Arity() {
		case 1:
			out.Append(op.Kind, op.Theta, l2p[op.Qubits[0]])
		case 2:
			pa, pb := l2p[op.Qubits[0]], l2p[op.Qubits[1]]
			for !cm.Connected(pa, pb) {
				// Step pa one hop closer to pb.
				next := -1
				for u := 0; u < cm.NumQubits; u++ {
					if cm.adj[pa][u] && dist[u][pb] == dist[pa][pb]-1 {
						next = u
						break
					}
				}
				if next < 0 {
					panic("layout: no path found (graph changed?)")
				}
				swapPhys(pa, next)
				pa = next
				pb = l2p[op.Qubits[1]] // may have moved if it was adjacent
			}
			out.Append(op.Kind, op.Theta, pa, pb)
		default:
			panic(fmt.Sprintf("layout: route requires gates of arity <= 2; transpile %s first", op.Kind))
		}
	}
	r.Circuit = out
	r.FinalLayout = append([]int(nil), l2p...)
	return r
}

// Overhead summarizes the routing cost relative to the unrouted circuit.
type Overhead struct {
	BaseCX, RoutedCX int
	Swaps            int
	CXFactor         float64
}

// RoutingOverhead routes c on cm and reports the CX inflation, counting
// each SWAP as the 3 CX it lowers to.
func RoutingOverhead(c *circuit.Circuit, cm *CouplingMap) Overhead {
	r := Route(c, cm, nil)
	base, routed := twoQubitCount(c), twoQubitCount(r.Circuit)
	o := Overhead{BaseCX: base, RoutedCX: routed, Swaps: r.SwapCount}
	if base > 0 {
		o.CXFactor = float64(routed) / float64(base)
	}
	return o
}

// twoQubitCount counts the 2q gates of a native circuit, a SWAP as its
// 3 CX.
func twoQubitCount(c *circuit.Circuit) int {
	n := 0
	for _, op := range c.Ops {
		switch {
		case op.Kind == gate.SWAP:
			n += 3
		case op.Kind.Arity() == 2:
			n++
		}
	}
	return n
}
