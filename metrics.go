package sslic

import (
	"fmt"
	"image"

	"sslic/internal/imgio"
	"sslic/internal/metrics"
)

// GroundTruth wraps a reference segmentation (e.g. from an annotated
// dataset) for metric evaluation.
type GroundTruth struct {
	lm *imgio.LabelMap
}

// NewGroundTruth builds a ground truth from a row-major label slice.
func NewGroundTruth(w, h int, labels []int32) (*GroundTruth, error) {
	lm, err := newLabelMap(w, h, labels)
	if err != nil {
		return nil, err
	}
	return &GroundTruth{lm: lm}, nil
}

// Metrics bundles the standard superpixel quality measures of the
// paper's evaluation (§3).
type Metrics struct {
	// UndersegmentationError measures leakage across ground-truth
	// boundaries (lower is better; Figure 2a).
	UndersegmentationError float64
	// BoundaryRecall measures how much of the ground-truth boundary the
	// superpixel boundaries recover within 2 pixels (higher is better;
	// Figure 2b).
	BoundaryRecall float64
	// AchievableSegmentationAccuracy is the oracle labeling accuracy.
	AchievableSegmentationAccuracy float64
	// ExplainedVariation is the color variance captured by superpixel
	// means.
	ExplainedVariation float64
	// Compactness is the area-weighted isoperimetric quotient.
	Compactness float64
}

// Evaluate computes the quality of s against gt on the source image.
func Evaluate(img image.Image, s *Segmentation, gt *GroundTruth) (Metrics, error) {
	if s == nil || gt == nil {
		return Metrics{}, fmt.Errorf("sslic: nil segmentation or ground truth")
	}
	im := imgio.FromGoImage(img)
	sum, err := metrics.Evaluate(im, s.lm, gt.lm)
	if err != nil {
		return Metrics{}, err
	}
	return Metrics{
		UndersegmentationError:         sum.USE,
		BoundaryRecall:                 sum.BoundaryRec,
		AchievableSegmentationAccuracy: sum.ASA,
		ExplainedVariation:             sum.ExplainedVar,
		Compactness:                    sum.Compactness,
	}, nil
}
