package charging

import (
	"errors"
	"fmt"
	"math"
)

// Calibration is the result of fitting the exponential propagation model
// to measured single-sensor data.
type Calibration struct {
	// RefEfficiency is the fitted single-node efficiency at RefDistance.
	RefEfficiency float64
	// Decay is the fitted exponential path-loss rate (1/m).
	Decay float64
	// R2 is the coefficient of determination of the log-linear fit;
	// close to 1 means the exponential model explains the data.
	R2 float64
	// Samples is the number of measurements used.
	Samples int
}

// Calibrate fits the lab's propagation model to measured single-sensor
// received powers: ln P(d) = ln(TxPower*eta0) - kappa*(d - d0) is linear
// in d, so an ordinary least-squares fit on (d, ln P) recovers eta0 (at
// the reference distance refDist) and kappa. This is how a practitioner
// would re-parameterise the simulated lab against their own charger
// hardware. Measurements must be single-sensor cells with positive power.
func Calibrate(txPowerMW, refDist float64, cells []Measurement) (*Calibration, error) {
	if txPowerMW <= 0 {
		return nil, fmt.Errorf("charging: calibrate needs positive tx power, got %g", txPowerMW)
	}
	if refDist <= 0 {
		return nil, fmt.Errorf("charging: calibrate needs positive reference distance, got %g", refDist)
	}
	var xs, ys []float64
	for _, c := range cells {
		if c.Sensors != 1 {
			continue
		}
		if c.MeanPerNodeMW <= 0 {
			return nil, fmt.Errorf("charging: non-positive power %g at %gm", c.MeanPerNodeMW, c.ChargerDist)
		}
		xs = append(xs, c.ChargerDist)
		ys = append(ys, math.Log(c.MeanPerNodeMW))
	}
	if len(xs) < 2 {
		return nil, errors.New("charging: calibrate needs at least two single-sensor measurements at distinct distances")
	}

	slope, intercept, r2, err := linearFit(xs, ys)
	if err != nil {
		return nil, err
	}
	kappa := -slope
	// ln P(refDist) = intercept + slope*refDist; eta0 = P(refDist)/Tx.
	pRef := math.Exp(intercept + float64(slope*refDist))
	return &Calibration{
		RefEfficiency: pRef / txPowerMW,
		Decay:         kappa,
		R2:            r2,
		Samples:       len(xs),
	}, nil
}

// Lab builds a Lab from the calibration, inheriting the shadowing and
// noise parameters from base.
func (c *Calibration) Lab(base Lab, txPowerMW, refDist float64) (Lab, error) {
	l := base
	l.TxPower = txPowerMW
	l.RefDistance = refDist
	l.RefEfficiency = c.RefEfficiency
	l.Decay = c.Decay
	if err := l.Validate(); err != nil {
		return Lab{}, err
	}
	return l, nil
}

// linearFit is ordinary least squares y = intercept + slope*x with R².
func linearFit(xs, ys []float64) (slope, intercept, r2 float64, err error) {
	n := float64(len(xs))
	var sumX, sumY float64
	for i := range xs {
		sumX += xs[i]
		sumY += ys[i]
	}
	meanX, meanY := sumX/n, sumY/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-meanX, ys[i]-meanY
		sxx += float64(dx * dx)
		sxy += float64(dx * dy)
		syy += float64(dy * dy)
	}
	if sxx == 0 {
		return 0, 0, 0, errors.New("charging: calibrate needs measurements at distinct distances")
	}
	slope = sxy / sxx
	intercept = meanY - float64(slope*meanX)
	if syy == 0 {
		return slope, intercept, 1, nil
	}
	ssRes := syy - float64(slope*sxy)
	r2 = 1 - ssRes/syy
	return slope, intercept, r2, nil
}
