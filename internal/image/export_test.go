package image

// sharesState reports whether a and b run on one copy of the words and
// one program table.
func sharesState(a, b *Image) bool {
	return &a.words[0] == &b.words[0] && &a.progs[0] == &b.progs[0]
}

// SharesState exports sharesState to the external tests.
var SharesState = sharesState
