package slic

import "sslic/internal/imgio"

// EnforceConnectivity implements the final SLIC pass of §2: after k-means
// convergence some pixels may form small disjoint islands with the label
// of a distant superpixel. The pass relabels every 4-connected component;
// components smaller than minSize are absorbed into the adjacent
// component discovered immediately before them in scan order (the
// original SLIC heuristic). Labels are renumbered densely from 0, in
// scan order of each label's first pixel.
//
// It returns the number of connected components after merging, i.e. the
// final superpixel count. It allocates its working memory; a stream of
// frames reuses it through Connectivity.Enforce.
func EnforceConnectivity(labels *imgio.LabelMap, minSize int) int {
	var c Connectivity
	return c.Enforce(labels, minSize)
}

// Connectivity is the working memory of the connectivity pass: a label
// map's row runs and their union-find forest. It grows to the largest
// run count seen, so a Connectivity reused across frames allocates
// nothing once warm. It must not be shared by concurrent passes. The
// zero value is ready to use.
type Connectivity struct {
	runs []labelRun
}

// labelRun is a maximal run of equal labels within one row, in scan
// order: a run with x0 = 0 starts a row. Its end is the next run's x0
// when that run is in the same row, else the row's end; its label is
// the plane's at x0 until the final pass overwrites the plane.
type labelRun struct {
	x0 int32
	// parent is the run's union-find parent. A union links the larger
	// root under the smaller, so a parent never follows its child and a
	// component's root is its first run in scan order, the one holding
	// the component's first pixel.
	parent int32
	// n is a root's component size in pixels, and its final label once
	// the component is finalised.
	n int32
}

// Enforce is EnforceConnectivity on c's memory. It finds the components
// as unions of row runs, not pixel by pixel: runs of equal labels in
// adjacent rows that overlap are joined. It then finalises the roots in
// scan order, as the per-pixel flood fill of the original release visits
// its seeds, so the labels are the same:
//   - a component of at least minSize pixels, or the first, takes the
//     next label;
//   - a smaller one takes adjacent: the final label of its first
//     pixel's last finalised 4-neighbour, checked left, right, up, down.
//     A right or down neighbour is finalised when its component's root
//     precedes this one's. With no finalised neighbour, adjacent keeps
//     the previous component's value (0 at the start).
func (c *Connectivity) Enforce(labels *imgio.LabelMap, minSize int) int {
	w, h := labels.W, labels.H
	if w <= 0 || h <= 0 {
		return 0
	}
	runs := c.findRuns(labels.Labels, w, h)

	// Point every run at its root and sum each component's size there.
	// A parent precedes its child, so it already points at its root.
	for r := range runs {
		root := runs[runs[r].parent].parent
		runs[r].parent = root
		runs[root].n += runEnd(runs, int32(r), w) - runs[r].x0
	}

	// Finalise each root at its first run, and write every run's final
	// label into the plane. up and down track the runs of rows y-1 and
	// y+1 under the current seed.
	next, adjacent := int32(0), int32(0)
	var first, up int32 // the first runs of rows y and y-1
	for y := 0; y < h; y++ {
		end := first + 1 // one past row y's last run: the first of row y+1
		for int(end) < len(runs) && runs[end].x0 > 0 {
			end++
		}
		down := end
		row := labels.Labels[y*w : (y+1)*w]
		for r := first; r < end; r++ {
			x0, x1 := runs[r].x0, runEnd(runs, r, w)
			root := runs[r].parent
			if root == r {
				if x0 > 0 {
					adjacent = runs[runs[r-1].parent].n
				}
				if x1 == x0+1 && r+1 < end {
					if q := runs[r+1].parent; q < r {
						adjacent = runs[q].n
					}
				}
				if y > 0 {
					for runEnd(runs, up, w) <= x0 {
						up++
					}
					adjacent = runs[runs[up].parent].n
				}
				if y < h-1 {
					for runEnd(runs, down, w) <= x0 {
						down++
					}
					if q := runs[down].parent; q < r {
						adjacent = runs[q].n
					}
				}
				if int(runs[r].n) < minSize && next > 0 {
					runs[r].n = adjacent
				} else {
					runs[r].n = next
					next++
				}
			}
			lbl := runs[root].n
			seg := row[x0:x1]
			for i := range seg {
				seg[i] = lbl
			}
		}
		up, first = first, end
	}
	return int(next)
}

// findRuns returns the row runs of the w×h plane lb, each its own root,
// with the overlapping equal-label runs of adjacent rows joined. The
// run table keeps its capacity across frames; where a row might not fit
// in it, the runs of the remaining rows are counted and the table grows
// to the frame's exact total, so it is sized at most once per frame.
func (c *Connectivity) findRuns(lb []int32, w, h int) []labelRun {
	runs := c.runs[:cap(c.runs)]
	counted := false
	var r, prev int32 // the run count so far, and the previous row's first run
	for y := 0; y < h; y++ {
		if !counted && int(r)+w > len(runs) {
			counted = true
			if need := int(r) + countRuns(lb[y*w:h*w], w); need > len(runs) {
				grown := make([]labelRun, need)
				copy(grown, runs[:r])
				runs = grown
			}
		}
		row := lb[y*w : (y+1)*w]
		first := r
		v0 := row[0]
		runs[r] = labelRun{parent: r}
		r++
		for x := 1; x < len(row); x++ {
			if v := row[x]; v != v0 {
				runs[r] = labelRun{x0: int32(x), parent: r}
				r++
				v0 = v
			}
		}
		if y > 0 {
			// Walk the two rows' runs in step. The current pair always
			// overlaps: each step moves past the run that ends first.
			up, done := lb[(y-1)*w:y*w], runs[:r]
			for i, j := prev, first; i < first && j < r; {
				if up[runs[i].x0] == row[runs[j].x0] {
					union(runs, i, j)
				}
				ei, ej := runEnd(done, i, w), runEnd(done, j, w)
				if ei <= ej {
					i++
				}
				if ej <= ei {
					j++
				}
			}
		}
		prev = first
	}
	c.runs = runs[:r]
	return c.runs
}

// countRuns returns the number of row runs in the rows of width w that
// lb holds.
func countRuns(lb []int32, w int) int {
	n := 0
	for y := 0; y+w <= len(lb); y += w {
		row := lb[y : y+w]
		n++
		for x := 1; x < len(row); x++ {
			if row[x] != row[x-1] {
				n++
			}
		}
	}
	return n
}

// runEnd is the end column of run r in a row of width w.
func runEnd(runs []labelRun, r int32, w int) int32 {
	if int(r)+1 < len(runs) && runs[r+1].x0 > 0 {
		return runs[r+1].x0
	}
	return int32(w)
}

// union joins the components of runs a and b under the smaller root.
func union(runs []labelRun, a, b int32) {
	ra, rb := find(runs, a), find(runs, b)
	switch {
	case ra < rb:
		runs[rb].parent = ra
	case rb < ra:
		runs[ra].parent = rb
	}
}

// find returns the root of run i, halving the path as it goes.
func find(runs []labelRun, i int32) int32 {
	for {
		p := runs[i].parent
		if p == i {
			return i
		}
		gp := runs[p].parent
		runs[i].parent = gp
		i = gp
	}
}
