package blas

// microGeneric is the portable micro-kernel: it accumulates the full
// mr×nr product of one packed A strip and one packed B strip in a local
// tile, then folds alpha·tile into the valid region of C: the first nrb
// columns of the len(offs) ≤ mr rows starting at c[offs[r]], in order. It
// is the only compute path on non-amd64 hosts (and under the purego tag),
// full tiles and ragged edge tiles alike: padding lanes in the packed strips
// are explicit zeros, so accumulating the full tile and writing back only
// the valid cells is exact.
func microGeneric(kb int, alpha float64, ap, bp []float64, c []float64, offs []int, nrb int) {
	var acc [mr * nr]float64
	for p := 0; p < kb; p++ {
		bs := bp[p*nr : p*nr+nr]
		as := ap[p*mr : p*mr+mr]
		for r, ar := range as {
			t := acc[r*nr : r*nr+nr]
			for j, b := range bs {
				t[j] += ar * b
			}
		}
	}
	for r, off := range offs {
		row := c[off : off+nrb]
		t := acc[r*nr:]
		for j := range row {
			row[j] += alpha * t[j]
		}
	}
}
