package sim

import "strconv"

// Label names a process or a blocking primitive in deadlock reports: a
// static prefix plus up to two non-negative integers, formatted only when a
// report asks for it. L("mpirun") prints as mpirun, L("rank", 5) as rank5,
// and L("rx", 5, 3), a link between two ids, as rx5<-3. Building a label
// formats and allocates nothing, so a world of many thousands of ranks can
// name every mailbox, gate, resource, counter and process it owns for free.
type Label struct {
	prefix string
	a, b   uint32 // id+1; 0: absent
}

// L returns the label prefix followed by ids, of which there may be at most
// two, each in [0, 2³²−2].
func L(prefix string, ids ...int) Label {
	if len(ids) > 2 {
		panic("sim: a label carries at most two integers")
	}
	var n [2]uint32
	for i, id := range ids {
		if id < 0 || uint64(id) >= 1<<32-1 {
			panic("sim: label integer out of range: " + strconv.Itoa(id))
		}
		n[i] = uint32(id) + 1
	}
	return Label{prefix: prefix, a: n[0], b: n[1]}
}

// String formats the label.
func (l Label) String() string {
	switch {
	case l.a == 0:
		return l.prefix
	case l.b == 0:
		return l.prefix + strconv.Itoa(int(l.a)-1)
	default:
		return l.prefix + strconv.Itoa(int(l.a)-1) + "<-" + strconv.Itoa(int(l.b)-1)
	}
}
