package workload

// Pair is a two-application workload, named the paper's way:
// "3DS_HISTO" runs 3DS and HISTO concurrently.
type Pair struct {
	A, B string
}

// Name returns the paper-style pair name.
func (p Pair) Name() string { return p.A + "_" + p.B }

// HMRCount returns how many members have both L1 and L2 TLB miss rates high
// (the paper's n-HMR workload categorisation, §6).
func (p Pair) HMRCount() int {
	n := 0
	if MustByName(p.A).HighHigh() {
		n++
	}
	if MustByName(p.B).HighHigh() {
		n++
	}
	return n
}

// Pairs35 is the paper's 35 two-application workload list (Figures 8/9).
var Pairs35 = []Pair{
	{"3DS", "BP"}, {"3DS", "HISTO"}, {"BLK", "LPS"}, {"CFD", "MM"},
	{"CONS", "LPS"}, {"CONS", "LUH"}, {"FWT", "BP"}, {"HISTO", "GUP"},
	{"HISTO", "LPS"}, {"LUH", "BFS2"}, {"LUH", "GUP"}, {"MM", "CONS"},
	{"MUM", "HISTO"}, {"NW", "HS"}, {"NW", "LPS"}, {"RAY", "GUP"},
	{"RAY", "HS"}, {"RED", "BP"}, {"RED", "GUP"}, {"RED", "MM"},
	{"RED", "RAY"}, {"RED", "SC"}, {"SCAN", "CONS"}, {"SCAN", "HISTO"},
	{"SCAN", "SAD"}, {"SCAN", "SRAD"}, {"SCP", "GUP"}, {"SCP", "HS"},
	{"SC", "FWT"}, {"SRAD", "3DS"}, {"TRD", "HS"}, {"TRD", "LPS"},
	{"TRD", "MUM"}, {"TRD", "RAY"}, {"TRD", "RED"},
}

// Fig7Pairs are the four representative pairs of the paper's Figure 7
// (shared-vs-alone L2 TLB miss rate).
var Fig7Pairs = []Pair{
	{"3DS", "HISTO"}, {"CONS", "LPS"}, {"MUM", "HISTO"}, {"RED", "RAY"},
}
