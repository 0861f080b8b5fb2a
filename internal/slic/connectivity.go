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
// final superpixel count.
func EnforceConnectivity(labels *imgio.LabelMap, minSize int) int {
	w, h := labels.W, labels.H
	n := w * h
	newLabels := make([]int32, n)
	for i := range newLabels {
		newLabels[i] = -1
	}

	dx4 := [4]int{-1, 1, 0, 0}
	dy4 := [4]int{0, 0, -1, 1}

	stack := make([]int, 0, 1024)
	component := make([]int, 0, 1024)
	next := int32(0)
	adjacent := int32(0) // label of the component seen just before, per SLIC

	for seed := 0; seed < n; seed++ {
		if newLabels[seed] >= 0 {
			continue
		}
		lbl := labels.Labels[seed]
		// Find a previously finalized neighbor to absorb into if this
		// component turns out to be too small.
		sx, sy := seed%w, seed/w
		for k := 0; k < 4; k++ {
			nx, ny := sx+dx4[k], sy+dy4[k]
			if nx < 0 || nx >= w || ny < 0 || ny >= h {
				continue
			}
			if v := newLabels[ny*w+nx]; v >= 0 {
				adjacent = v
			}
		}

		// Flood fill the 4-connected component of equal old labels.
		stack = append(stack[:0], seed)
		component = append(component[:0], seed)
		newLabels[seed] = next
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cx, cy := cur%w, cur/w
			for k := 0; k < 4; k++ {
				nx, ny := cx+dx4[k], cy+dy4[k]
				if nx < 0 || nx >= w || ny < 0 || ny >= h {
					continue
				}
				ni := ny*w + nx
				if newLabels[ni] < 0 && labels.Labels[ni] == lbl {
					newLabels[ni] = next
					stack = append(stack, ni)
					component = append(component, ni)
				}
			}
		}

		if len(component) < minSize && next > 0 {
			// Too small: absorb into the adjacent component.
			for _, i := range component {
				newLabels[i] = adjacent
			}
		} else {
			next++
		}
	}

	// The labels are already dense and in scan order of each one's first
	// pixel: a kept component takes the next label at its seed, the
	// first pixel in scan order without one, and an absorbed component
	// takes a label finalised before it.
	copy(labels.Labels, newLabels)
	return int(next)
}
