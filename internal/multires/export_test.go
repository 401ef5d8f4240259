package multires

// LevelAncestors returns, per materialised level network, its time and its
// leaf ancestor table, for the external tests that build and load trees
// through core.
func LevelAncestors(t *Tree) (times []int32, anc [][]NodeID) {
	for i := range t.levels {
		times = append(times, t.levels[i].time)
		anc = append(anc, t.levels[i].anc)
	}
	return times, anc
}
