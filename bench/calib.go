package main

import (
	"encoding/binary"
	"math/rand"
	"syscall"
	"time"

	"repro/internal/stats"
)

// The host this benchmark runs on is a shared virtual machine whose speed
// shifts by a quarter for minutes at a time, which is more than any bound
// a regression gate can use. A fixed calibration kernel, sampled between
// the executions of a run, shifts with it: dividing a run's times by its
// calibration time halved their spread across runs and cut their range
// from 35 % to 10–15 % (fig4-2 and soak-churn, ten runs each). Host times
// are therefore reported in calibrated seconds: seconds of a machine on
// which the kernel takes calibrationRef.

// calibrationRef is the calibration kernel's time on the reference
// machine (the authoring machine at its usual speed), in seconds.
const calibrationRef = 0.050

// calibrationShare is the part of a run's measuring time spent on
// calibration samples.
const calibrationShare = 0.10

const (
	chaseEntries = 8 << 20 // 32 MB of uint32, well past the cache a vCPU gets
	chaseSteps   = 150_000
	gatherSteps  = 16_000_000
)

// calibration is the kernel and its samples. The kernel is half dependent
// loads through a table larger than the cache and half arithmetic with
// cache-resident table look-ups, the two ways the simulator spends time.
// The table lives outside the Go heap so that it neither shows in the
// heap metrics nor moves the collector's pacing.
type calibration struct {
	chase   []byte
	table   [1 << 16]byte
	samples []float64
	spent   float64
}

func newCalibration() (*calibration, error) {
	mem, err := syscall.Mmap(-1, 0, 4*chaseEntries, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	c := &calibration{chase: mem}
	// One cycle through every entry, in an order the prefetcher cannot
	// guess (Sattolo's algorithm).
	rng := rand.New(rand.NewSource(1))
	next := make([]uint32, chaseEntries)
	for i := range next {
		next[i] = uint32(i)
	}
	for i := len(next) - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	for i, n := range next {
		binary.LittleEndian.PutUint32(mem[4*i:], n)
	}
	rng.Read(c.table[:])
	return c, nil
}

func (c *calibration) close() { _ = syscall.Munmap(c.chase) } // the process is about to exit anyway

var calibrationSink uint32

// sample runs the kernel once and records its time.
func (c *calibration) sample() {
	start := time.Now()
	p := uint32(0)
	for i := 0; i < chaseSteps; i++ {
		p = binary.LittleEndian.Uint32(c.chase[4*p:])
	}
	x, acc := uint32(2463534242), uint32(0)
	for i := 0; i < gatherSteps; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		acc += uint32(c.table[x&0xffff]) ^ uint32(c.table[x>>16])
	}
	calibrationSink += p + acc
	d := time.Since(start).Seconds()
	c.samples = append(c.samples, d)
	c.spent += d
}

// keepUp samples until calibration has had its share of the `measured`
// seconds the run has spent on the workload so far, and at least once.
func (c *calibration) keepUp(measured float64) {
	c.sample()
	for c.spent < calibrationShare*measured {
		c.sample()
	}
}

// seconds is the run's calibration time: the median sample.
func (c *calibration) seconds() float64 {
	return stats.Median(c.samples)
}

// calibrated converts host seconds measured in this run into seconds of
// the reference machine.
func (c *calibration) calibrated(seconds float64) float64 {
	return seconds * calibrationRef / c.seconds()
}
