// Package multires implements the paper's Distance Multiresolution Terrain
// Mesh (DMTM): a Direct-Mesh (DM) binary collapse tree augmented with
// distance information (DDM). Every tree node has a *representative vertex*
// in the original mesh and every recorded edge distance is the length of a
// real path between representatives on the original surface — the property
// that makes upper-bound estimates valid at every resolution and
// monotonically non-increasing as the level of detail grows (§3.2).
//
// The >100% resolution levels of DMTM (the pathnet) live in
// internal/pathnet; this package covers the ≤100% levels.
package multires

import (
	"fmt"
	"math"

	"surfknn/internal/geom"
	"surfknn/internal/mesh"
)

// NodeID identifies a node of the DM tree. The n original-mesh vertices
// are nodes 0..n-1 (leaves); the i-th collapse creates node n+i; the root
// is node 2n-2.
type NodeID int32

// NoNode marks the absence of a node.
const NoNode NodeID = -1

// Node is one DM/DDM tree node.
type Node struct {
	Parent      NodeID
	Left, Right NodeID  // children (NoNode for leaves); Left carries the representative
	Error       float64 // approximation error at which this node was created (0 for leaves)
	Rep         mesh.VertexID
	RepPos      geom.Vec3 // position of Rep in the original mesh (network geometry)
	Pos         geom.Vec3 // display position (QEM-optimal for internal nodes)
	// Gather bounds the original-mesh network distance from any descendant
	// leaf to Rep: g(leaf) = 0, g(c) = max(g(left), g(right)+d(left,right)).
	// It is what keeps point-embedding upper bounds valid at coarse LODs.
	Gather float64
	// Birth/Death delimit the node's active lifetime in collapse time:
	// node v is part of the resolution-t cut iff Birth <= t < Death.
	Birth, Death int32
	// MBR bounds the (x,y) extent of all descendant leaves.
	MBR geom.MBR
}

// EdgeRec is a DDM connectivity record: nodes U and W are connected with
// recorded representative-path distance D while both are active, i.e. for
// times t with Birth <= t < Death.
type EdgeRec struct {
	U, W         NodeID
	D            float64
	Birth, Death int32
}

// Tree is the in-memory DDM.
type Tree struct {
	Nodes     []Node
	Edges     []EdgeRec
	NumLeaves int
	maxTime   int32

	// Derived by Materialize for the upper-bound search (see levelnet.go);
	// immutable afterwards, never persisted.
	order  []int32    // edge indices in DMTM storage order
	levels []levelNet // one network per distinct ladder time
}

// Root returns the root node id.
func (t *Tree) Root() NodeID { return NodeID(len(t.Nodes) - 1) }

// IsLeaf reports whether v is an original-mesh vertex.
func (t *Tree) IsLeaf(v NodeID) bool { return int(v) < t.NumLeaves }

// validID reports whether v indexes a node of this tree.
func (t *Tree) validID(v NodeID) bool { return v >= 0 && int(v) < len(t.Nodes) }

// MaxTime returns the largest valid collapse time (NumLeaves-1: everything
// collapsed into the root).
func (t *Tree) MaxTime() int32 { return t.maxTime }

// SetMaxTime records the largest collapse time. It exists for loaders that
// reconstruct a Tree from persisted Nodes/Edges; Build sets it internally.
func (t *Tree) SetMaxTime(tm int32) { t.maxTime = tm }

// TimeForResolution converts the paper's "% of original points" resolution
// (e.g. 0.005 for 0.5%, 1.0 for 100%) into a collapse time. Resolution 1.0
// is the original mesh (time 0); lower resolutions collapse more.
func (t *Tree) TimeForResolution(r float64) int32 {
	if r >= 1 {
		return 0
	}
	target := int(math.Round(r * float64(t.NumLeaves)))
	if target < 2 {
		target = 2
	}
	if target > t.NumLeaves {
		target = t.NumLeaves
	}
	return int32(t.NumLeaves - target)
}

// ResolutionForTime is the inverse of TimeForResolution.
func (t *Tree) ResolutionForTime(tm int32) float64 {
	return float64(t.NumLeaves-int(tm)) / float64(t.NumLeaves)
}

// ActiveNodeCount returns how many nodes are active at time tm.
func (t *Tree) ActiveNodeCount(tm int32) int { return t.NumLeaves - int(tm) }

// IsActive reports whether node v is part of the resolution-tm cut.
func (t *Tree) IsActive(v NodeID, tm int32) bool {
	n := &t.Nodes[v]
	return n.Birth <= tm && tm < n.Death
}

// AncestorAt returns the unique active ancestor (or self) of node v at time
// tm.
func (t *Tree) AncestorAt(v NodeID, tm int32) NodeID {
	for v != NoNode && t.Nodes[v].Death <= tm {
		v = t.Nodes[v].Parent
	}
	if v == NoNode {
		return t.Root()
	}
	if t.Nodes[v].Birth > tm {
		// Cannot happen for leaves (Birth 0); for parents it would mean tm
		// precedes the node's creation, i.e. the caller asked about a node
		// that does not yet exist at tm — report the node itself.
		return v
	}
	return v
}

// ErrorAt returns the approximation error of the resolution-tm cut (the
// error of the last collapse applied; 0 at time 0).
func (t *Tree) ErrorAt(tm int32) float64 {
	if tm <= 0 {
		return 0
	}
	// Node created by collapse i has Birth i+1 and is node NumLeaves+i.
	return t.Nodes[t.NumLeaves+int(tm)-1].Error
}

// EdgeMBR returns the (x,y) bounding rectangle of an edge record's
// representative endpoints (the geometry used for spatial clustering and
// region filtering).
func (t *Tree) EdgeMBR(e EdgeRec) (minX, minY, maxX, maxY float64) {
	pu := t.Nodes[e.U].RepPos
	pw := t.Nodes[e.W].RepPos
	minX, maxX = pu.X, pw.X
	if minX > maxX {
		minX, maxX = maxX, minX
	}
	minY, maxY = pu.Y, pw.Y
	if minY > maxY {
		minY, maxY = maxY, minY
	}
	return
}

// Validate checks the structural invariants of the tree. It is used by
// tests and by consumers loading a tree from storage.
func (t *Tree) Validate() error {
	n := t.NumLeaves
	if len(t.Nodes) != 2*n-1 {
		return fmt.Errorf("multires: %d nodes for %d leaves, want %d", len(t.Nodes), n, 2*n-1)
	}
	for i, nd := range t.Nodes {
		v := NodeID(i)
		if t.IsLeaf(v) {
			if nd.Left != NoNode || nd.Right != NoNode {
				return fmt.Errorf("multires: leaf %d has children", i)
			}
			if nd.Birth != 0 {
				return fmt.Errorf("multires: leaf %d has birth %d", i, nd.Birth)
			}
		} else {
			if nd.Left == NoNode || nd.Right == NoNode {
				return fmt.Errorf("multires: internal node %d lacks children", i)
			}
			// IDs may come from untrusted storage: bounds-check before
			// indexing so a corrupt tree fails validation instead of
			// panicking.
			if !t.validID(nd.Left) || !t.validID(nd.Right) {
				return fmt.Errorf("multires: node %d child out of range (%d,%d)", i, nd.Left, nd.Right)
			}
			l, r := t.Nodes[nd.Left], t.Nodes[nd.Right]
			if l.Parent != v || r.Parent != v {
				return fmt.Errorf("multires: node %d children disown it", i)
			}
			if nd.Error < l.Error || nd.Error < r.Error {
				return fmt.Errorf("multires: node %d error %g below child errors (%g,%g)", i, nd.Error, l.Error, r.Error)
			}
			if l.Death != nd.Birth || r.Death != nd.Birth {
				return fmt.Errorf("multires: node %d birth %d != children deaths (%d,%d)", i, nd.Birth, l.Death, r.Death)
			}
			if nd.Rep != t.Nodes[nd.Left].Rep {
				return fmt.Errorf("multires: node %d representative %d != left child's %d", i, nd.Rep, t.Nodes[nd.Left].Rep)
			}
			if !nd.MBR.ContainsMBR(l.MBR) || !nd.MBR.ContainsMBR(r.MBR) {
				return fmt.Errorf("multires: node %d MBR does not cover children", i)
			}
		}
		if nd.Death <= nd.Birth {
			return fmt.Errorf("multires: node %d lifetime [%d,%d) empty", i, nd.Birth, nd.Death)
		}
		// A collapse creates its node after both children, so a parent's
		// ID is above theirs (and the root, the last node, has none). The
		// level networks' ancestor tables are filled in that order.
		if nd.Parent != NoNode && (nd.Parent <= v || !t.validID(nd.Parent)) {
			return fmt.Errorf("multires: node %d has parent %d, not a node above it", i, nd.Parent)
		}
	}
	for i, e := range t.Edges {
		if e.Death <= e.Birth {
			return fmt.Errorf("multires: edge %d lifetime [%d,%d) empty", i, e.Birth, e.Death)
		}
		if !t.validID(e.U) || !t.validID(e.W) {
			return fmt.Errorf("multires: edge %d endpoint out of range (%d,%d)", i, e.U, e.W)
		}
		u, w := t.Nodes[e.U], t.Nodes[e.W]
		if e.Birth < u.Birth || e.Birth < w.Birth || e.Death > u.Death && e.Death > w.Death {
			// An edge must live within its endpoints' lifetimes and die no
			// later than the first endpoint death.
			if e.Death > minI32(u.Death, w.Death) {
				return fmt.Errorf("multires: edge %d outlives endpoint", i)
			}
		}
		if e.D < 0 {
			return fmt.Errorf("multires: edge %d has negative distance", i)
		}
	}
	return nil
}

func minI32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}
