package dataplane

import "github.com/unroller/unroller/internal/detect"

// noPort marks a FIB entry with no route.
const noPort = -1

// fibTable is a network's forwarding state, shared by all its switches:
// one row per destination holding every switch's primary egress port,
// followed by every switch's backup port, as int16 with noPort for "no
// route". Switch s's entries for destination d are row(d)[s.Node] and
// row(d)[nodes+s.Node].
//
// The layout is destination-major because a packet's hops all look up
// the same destination: a journey reads one row, 2·nodes bytes of
// primary ports (640 B on FatTree(16)), where per-switch hash maps made
// every hop a cold lookup in a different table. A row is allocated when
// the first route to its destination is installed.
//
// Destination IDs are interned to dense row indices: NewNetwork interns
// the assignment's IDs (row i is node i's ID), and SetRoute/SetBackup
// intern any other ID the first time they see it.
//
// verify.State keeps the same destination-major shape in its next[]
// array, but the two are separate instances on purpose: the oracle builds
// its ground truth from the routes the switches report through Route, so
// a defect in this table shows up as a divergence instead of being shared
// by the data plane and the oracle that checks it.
type fibTable struct {
	nodes int
	index map[detect.SwitchID]int32
	ids   []detect.SwitchID // ids[r] is the destination of rows[r]
	rows  [][]int16
}

func newFIB(nodes int) *fibTable {
	return &fibTable{nodes: nodes, index: make(map[detect.SwitchID]int32)}
}

// intern returns dst's row index, adding an empty row slot for a new
// destination.
func (t *fibTable) intern(dst detect.SwitchID) int32 {
	if r, ok := t.index[dst]; ok {
		return r
	}
	r := int32(len(t.rows))
	t.index[dst] = r
	t.ids = append(t.ids, dst)
	t.rows = append(t.rows, nil)
	return r
}

// row returns dst's row, or nil when no route to dst was ever installed.
func (t *fibTable) row(dst detect.SwitchID) []int16 {
	if r, ok := t.index[dst]; ok {
		return t.rows[r]
	}
	return nil
}

// set writes entry col of dst's row (node for a primary port,
// nodes+node for a backup), allocating the row on first use.
func (t *fibTable) set(dst detect.SwitchID, col int, port PortID) {
	r := t.intern(dst)
	if t.rows[r] == nil {
		row := make([]int16, 2*t.nodes)
		for i := range row {
			row[i] = noPort
		}
		t.rows[r] = row
	}
	t.rows[r][col] = int16(port)
}

// get reads entry col of dst's row.
func (t *fibTable) get(dst detect.SwitchID, col int) (PortID, bool) {
	row := t.row(dst)
	if row == nil || row[col] == noPort {
		return 0, false
	}
	return PortID(row[col]), true
}

// clearColumn withdraws entry col from every row.
func (t *fibTable) clearColumn(col int) {
	for _, row := range t.rows {
		if row != nil {
			row[col] = noPort
		}
	}
}
