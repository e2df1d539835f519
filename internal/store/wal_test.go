package store

import "testing"

// TestWALHasCommit: the marker check reads only a generation's prefix. A
// marker followed by a torn tail still counts as committed (the scan stops at
// the marker, and the tail is replay's business); a prefix that ends before
// any marker — a torn creation write — does not.
func TestWALHasCommit(t *testing.T) {
	var committed []byte
	committed = appendFrame(committed, encodeHeader(0, 0))
	committed = appendFrame(committed, encodeOpen(nil, 0, "t0"))
	committed = appendFrame(committed, []byte{recCommit})
	committed = appendFrame(committed, encodeSeal(nil, 0))
	torn := append(committed[:len(committed):len(committed)], appendFrame(nil, encodeSeal(nil, 1))...)
	torn = torn[:len(torn)-3] // cut the last frame mid-checksum
	if !walHasCommit(torn) {
		t.Fatal("marker followed by a torn tail: want committed")
	}

	var prefix []byte
	prefix = appendFrame(prefix, encodeHeader(0, 0))
	prefix = appendFrame(prefix, encodeOpen(nil, 0, "t0"))
	if walHasCommit(prefix) {
		t.Fatal("prefix without a marker: want not committed")
	}
	// A marker frame cut mid-write is no marker.
	cut := appendFrame(prefix[:len(prefix):len(prefix)], []byte{recCommit})
	if walHasCommit(cut[:len(cut)-1]) {
		t.Fatal("torn marker frame: want not committed")
	}
}
