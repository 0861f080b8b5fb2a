package main

import (
	"bytes"
	"fmt"

	"sslic/internal/dataset"
	"sslic/internal/imgio"
	"sslic/internal/metrics"
	"sslic/internal/video"
	"sslic/internal/wire"
)

// shape is a workload's frame geometry, superpixel count and scene
// complexity (ground-truth regions per scene).
type shape struct {
	w, h, k, regions int
}

// sceneConfig is the BSDS-like dataset configuration at the given shape.
func sceneConfig(s shape, kind dataset.Kind) dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.W, cfg.H, cfg.Regions, cfg.Kind = s.w, s.h, s.regions, kind
	return cfg
}

// panStream is one camera: a seeded master scene panned 3 px per frame,
// pre-rendered for frames 0..n-1 and replayed ping-pong (0..n-1..1, 0..)
// so consecutive frames never jump and warm starts stay valid forever.
type panStream struct {
	stream *video.Stream
	frames []*imgio.Image
	order  []int
}

func newPanStream(s shape, kind dataset.Kind, seed int64, n int) (*panStream, error) {
	st, err := video.NewStream(sceneConfig(s, kind), seed, video.Pan, 3)
	if err != nil {
		return nil, fmt.Errorf("scene: %w", err)
	}
	ps := &panStream{stream: st}
	gt := imgio.NewLabelMap(s.w, s.h)
	for t := 0; t < n; t++ {
		im := imgio.NewImage(s.w, s.h)
		if err := st.FrameInto(t, im, gt); err != nil {
			return nil, fmt.Errorf("frame %d: %w", t, err)
		}
		ps.frames = append(ps.frames, im)
	}
	for t := 0; t < n; t++ {
		ps.order = append(ps.order, t)
	}
	for t := n - 2; t > 0; t-- {
		ps.order = append(ps.order, t)
	}
	return ps, nil
}

// groundTruth renders frame t's exact ground truth.
func (ps *panStream) groundTruth(t int) (*imgio.LabelMap, error) {
	w, h := ps.stream.Size()
	im, gt := imgio.NewImage(w, h), imgio.NewLabelMap(w, h)
	if err := ps.stream.FrameInto(t, im, gt); err != nil {
		return nil, err
	}
	return gt, nil
}

func encodePPM(im *imgio.Image) ([]byte, error) {
	var b bytes.Buffer
	if err := imgio.EncodePPM(&b, im); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// sample is one served label map kept for the quality score.
type sample struct {
	frame int
	rle   []byte
}

// sampler keeps one in every `every` frames it is offered, up to max,
// RLE-coded so that holding them does not inflate the peak heap being
// measured.
type sampler struct {
	every, max, seen int
	kept             []sample
}

func (s *sampler) offer(frame int, lm *imgio.LabelMap) error {
	s.seen++
	if (s.seen-1)%s.every != 0 || len(s.kept) >= s.max {
		return nil
	}
	var b bytes.Buffer
	if err := wire.EncodeRLE(&b, lm); err != nil {
		return err
	}
	s.kept = append(s.kept, sample{frame: frame, rle: b.Bytes()})
	return nil
}

// quality is the mean boundary recall (tolerance 2 px, the paper's
// setting) and undersegmentation error of labels against ground truth.
type quality struct {
	br, use float64
	n       int
}

func (q *quality) add(labels, gt *imgio.LabelMap, weight int) error {
	br, err := metrics.BoundaryRecall(labels, gt, 2)
	if err != nil {
		return err
	}
	use, err := metrics.UndersegmentationError(labels, gt)
	if err != nil {
		return err
	}
	q.br += br * float64(weight)
	q.use += use * float64(weight)
	q.n += weight
	return nil
}

// addSamples scores kept samples against the ground truth of their frames.
func (q *quality) addSamples(samples []sample, gt func(frame int) (*imgio.LabelMap, error)) error {
	for _, s := range samples {
		lm, err := wire.Decode(bytes.NewReader(s.rle), 1<<30, nil)
		if err != nil {
			return fmt.Errorf("quality sample: %w", err)
		}
		truth, err := gt(s.frame)
		if err != nil {
			return err
		}
		if err := q.add(lm, truth, 1); err != nil {
			return err
		}
	}
	return nil
}

func (q quality) means() (br, use float64) {
	if q.n == 0 {
		return 0, 0
	}
	return q.br / float64(q.n), q.use / float64(q.n)
}

// labelRangeOK reports whether every label lies in [0, w*h): connectivity
// enforcement renumbers superpixels densely from 0.
func labelRangeOK(lm *imgio.LabelMap) bool {
	n := int32(len(lm.Labels))
	for _, l := range lm.Labels {
		if l < 0 || l >= n {
			return false
		}
	}
	return true
}
