package lp

// densePivot is the full-width pivot the sparse kernel replaced: it
// normalizes the pivot row and eliminates col from every other row and
// from the reduced-cost row across every column, artificial ones included.
// It is kept as the reference the sparse kernel must reproduce bit for bit.
func densePivot(s *simplex, rowi, col int) {
	nCols := s.nCols
	prow := s.tab[rowi]
	pv := prow[col]
	for j := 0; j <= nCols; j++ {
		prow[j] /= pv
	}
	for i := range s.tab {
		if i == rowi {
			continue
		}
		f := s.tab[i][col]
		if f == 0 {
			continue
		}
		trow := s.tab[i]
		for j := 0; j <= nCols; j++ {
			trow[j] -= f * prow[j]
		}
	}
	if s.z != nil {
		f := s.z[col]
		if f != 0 {
			for j := 0; j <= nCols; j++ {
				s.z[j] -= f * prow[j]
			}
		}
	}
	s.basis[rowi] = col
}

// CountPivots runs solve with the dense reference kernel (dense) or the
// production sparse kernel and reports how many pivots it took.  It swaps
// a package variable, so callers must not run solves concurrently.
func CountPivots(dense bool, solve func()) (pivots int) {
	kernel := (*simplex).pivot
	if dense {
		kernel = densePivot
	}
	saved := pivotKernel
	defer func() { pivotKernel = saved }()
	pivotKernel = func(s *simplex, rowi, col int) {
		pivots++
		kernel(s, rowi, col)
	}
	solve()
	return pivots
}
