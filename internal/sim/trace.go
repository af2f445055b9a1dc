package sim

import (
	"bufio"
	"fmt"
	"io"
)

// Tracer receives per-round simulation snapshots. Implementations must be
// cheap: the simulator calls Observe once per round.
type Tracer interface {
	// Observe is called after each completed round with a read-only view
	// of the simulator.
	Observe(round int, s *Simulator)
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(round int, s *Simulator)

// Observe implements Tracer.
func (f TracerFunc) Observe(round int, s *Simulator) { f(round, s) }

// CSVTracer streams one CSV row per sample round: cumulative metrics plus
// the minimum battery fraction across the network — the curve that shows
// whether the charging schedule keeps up
// and, under fault injection, the per-round availability and repair
// counters that show how the network degrades and recovers. Rows are
// buffered; call Flush (or use defer) before reading the output.
type CSVTracer struct {
	w      *bufio.Writer
	every  int
	wroteH bool
	err    error
}

// csvHeader is the tracer's column set.
const csvHeader = "round,delivered,lost,network_energy_nj,charger_energy_nj,charger_distance_m,min_battery_frac,alive_nodes,availability,repairs\n"

// NewCSVTracer samples every `every` rounds (minimum 1) and writes CSV to w.
func NewCSVTracer(w io.Writer, every int) *CSVTracer {
	if every < 1 {
		every = 1
	}
	return &CSVTracer{w: bufio.NewWriter(w), every: every}
}

// Observe implements Tracer.
func (c *CSVTracer) Observe(round int, s *Simulator) {
	if c.err != nil || round%c.every != 0 {
		return
	}
	if !c.wroteH {
		c.wroteH = true
		if _, err := c.w.WriteString(csvHeader); err != nil {
			c.err = err
			return
		}
	}
	m := s.Metrics()
	minFrac := 1.0
	alive := 0
	for i := range s.posts {
		alive += s.posts[i].AliveCount()
		if count, minE, _ := s.posts[i].usableEnergy(round); count > 0 {
			minFrac = min(minFrac, minE/s.cfg.BatteryCapacity)
		}
	}
	_, c.err = fmt.Fprintf(c.w, "%d,%d,%d,%.1f,%.1f,%.1f,%.4f,%d,%.4f,%d\n",
		round, m.ReportsDelivered, m.ReportsLost, m.NetworkEnergy, m.ChargerEnergy, m.ChargerDistance,
		minFrac, alive, s.RoundAvailability(), m.Repairs)
}

// Flush drains buffered rows and reports any write error encountered.
func (c *CSVTracer) Flush() error {
	if err := c.w.Flush(); err != nil {
		return err
	}
	return c.err
}

// AvailabilityTracer records the per-round availability series — the
// fraction of posts whose report reached the base station each sampled
// round. It is the degradation curve of a failure study: 1.0 while
// healthy, stepping down as posts die or starve, and stepping back up
// after repairs.
type AvailabilityTracer struct {
	// Every is the sampling interval in rounds (values < 1 sample every
	// round).
	Every int
	// Rounds and Series hold the sampled rounds and availabilities.
	Rounds []int
	Series []float64
}

// Observe implements Tracer.
func (a *AvailabilityTracer) Observe(round int, s *Simulator) {
	every := a.Every
	if every < 1 {
		every = 1
	}
	if round%every != 0 {
		return
	}
	a.Rounds = append(a.Rounds, round)
	a.Series = append(a.Series, s.RoundAvailability())
}

// Min returns the lowest sampled availability (1 when nothing sampled).
func (a *AvailabilityTracer) Min() float64 {
	min := 1.0
	for _, v := range a.Series {
		if v < min {
			min = v
		}
	}
	return min
}
