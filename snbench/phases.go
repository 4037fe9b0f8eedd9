package main

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"
)

// rounds is how many open-loop/closed-loop slice pairs a run
// interleaves. On a shared machine a slow spell (a neighbour taking the
// hypervisor's time; see steal) then lands in some of the slices only,
// and p50_ms and peak_qps are read from the quieter rounds: the lower
// quartile of the rounds' p50s and the upper quartile of their
// throughputs.
const rounds = 10

// measurement is what the timed phases of one run observed.
type measurement struct {
	warm, open, closed []result
	openRounds         []int         // open-loop requests per round, in order
	closedQPS          []float64     // correct answers per second, per closed-loop slice
	roundSteal         []float64     // share of machine CPU time stolen, per round
	openDelta          promSample    // /metrics change summed over the open-loop slices
	allDelta           promSample    // /metrics change summed over all slices
	closedCPU          time.Duration // snserve CPU time over the closed-loop slices
	rss                []float64     // snserve VmRSS in MiB after each slice
	wall               time.Duration
	genCPU             time.Duration // the generator's own CPU time over the phases
	ticks, steal       int64         // machine CPU ticks and hypervisor-stolen ticks over the phases
}

// measure warms srv up and then runs the timed phases: rounds pairs of
// an open-loop slice (the seeded Poisson schedule's next window) and a
// closed-loop slice. /metrics is scraped and /proc/<pid> read between
// slices, never during one.
func measure(srv *server, ld *loader, seed uint64, rate, seconds float64) (*measurement, error) {
	m := &measurement{openDelta: promSample{}, allDelta: promSample{}}
	m.warm = ld.closedLoop(time.Duration(warmSeconds * float64(time.Second)))

	var firstErr error
	check := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	c := &http.Client{Timeout: 10 * time.Second}
	pid := strconv.Itoa(srv.pid())
	openDur := seconds * openShare
	closedSlice := time.Duration((seconds - openDur) / rounds * float64(time.Second))
	due := schedule(seed, rate, openDur)

	gen0, err := procCPU("self")
	check(err)
	ticks0, steal0, err := cpuTicks()
	check(err)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		lo, hi := float64(r)*openDur/rounds, float64(r+1)*openDur/rounds
		var slice []float64
		for _, d := range due {
			if d >= lo && d < hi {
				slice = append(slice, d-lo)
			}
		}
		rt0, rs0, err := cpuTicks()
		check(err)
		before, err := srv.scrape(c)
		check(err)
		m.open = append(m.open, ld.openLoop(slice)...)
		m.openRounds = append(m.openRounds, len(slice))
		mid, err := srv.scrape(c)
		check(err)
		rssOpen, err := procMiB(pid, "VmRSS")
		check(err)
		cpu0, err := procCPU(pid)
		check(err)
		t := time.Now()
		cs := ld.closedLoop(closedSlice)
		cpu1, err := procCPU(pid)
		check(err)
		rssClosed, err := procMiB(pid, "VmRSS")
		check(err)
		after, err := srv.scrape(c)
		check(err)
		rt1, rs1, err := cpuTicks()
		check(err)
		m.rss = append(m.rss, rssOpen, rssClosed)
		m.roundSteal = append(m.roundSteal, float64(rs1-rs0)/float64(max(rt1-rt0, 1)))

		ok, end := 0, t
		for i := range cs {
			if cs[i].ok() {
				ok++
			}
			if cs[i].done.After(end) {
				end = cs[i].done
			}
		}
		m.closedQPS = append(m.closedQPS, float64(ok)/end.Sub(t).Seconds())
		m.closed = append(m.closed, cs...)
		m.closedCPU += cpu1 - cpu0
		m.openDelta.add(before, mid)
		m.allDelta.add(before, after)
	}
	m.wall = time.Since(start)
	gen1, err := procCPU("self")
	check(err)
	ticks1, steal1, err := cpuTicks()
	check(err)
	m.genCPU, m.ticks, m.steal = gen1-gen0, ticks1-ticks0, steal1-steal0
	return m, firstErr
}

// roundP50s returns each round's median latency; samples are in send
// order and counts gives each round's share of them.
func roundP50s(samples []float64, counts []int) []float64 {
	var p50s []float64
	lo := 0
	for _, n := range counts {
		if n > 0 {
			p50s = append(p50s, percentile(append([]float64(nil), samples[lo:lo+n]...), 50))
		}
		lo += n
	}
	return p50s
}

// quietRounds returns the lower (latency) or upper (throughput)
// quartile of per-round values: the reading of the quieter rounds. Of
// ten rounds, a slow spell may cover seven and the reading still comes
// from the three it missed.
func quietRounds(perRound []float64, lowerIsBetter bool) float64 {
	q1, q3 := quartiles(append([]float64(nil), perRound...))
	if lowerIsBetter {
		return q1
	}
	return q3
}

// blockP99 splits samples, in send order, into as many consecutive
// blocks of at least minTailN as they fill, and returns the median of
// the blocks' p99s. Each block's p99 has ten samples beyond it; the
// median keeps one slow spell from setting the run's tail.
func blockP99(samples []float64) float64 {
	blocks := max(len(samples)/minTailN, 1)
	p99s := make([]float64, blocks)
	for b := range p99s {
		lo, hi := b*len(samples)/blocks, (b+1)*len(samples)/blocks
		p99s[b] = percentile(append([]float64(nil), samples[lo:hi]...), 99)
	}
	return median(p99s)
}

// tail returns the run's tail latency and its name: p99_ms, from
// blockP99, once the open loop gathered minTailN samples. With fewer,
// p99 would have fewer than ten samples beyond it, so the highest whole
// percentile the sample supports is reported under its own name
// instead; whole percents keep the name the same from run to run.
func tail(samples []float64) (string, float64) {
	if len(samples) >= minTailN {
		return "p99_ms", blockP99(samples)
	}
	p := math.Floor(maxPercentile(len(samples)))
	return fmt.Sprintf("p%g_ms", p), percentile(append([]float64(nil), samples...), p)
}
