package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// requestTimeout bounds one request; a request that runs out counts as
// failed.
const requestTimeout = 10 * time.Second

// result is one request as the generator saw it.
type result struct {
	input  int       // index of the distinct input sent
	due    time.Time // open loop: when the schedule wanted it sent
	sent   time.Time
	done   time.Time
	idle   bool // open loop: a connection was free at the due time
	status int
	body   []byte
	err    error
}

func (r *result) ok() bool { return r.err == nil && r.status == http.StatusOK }

// loader sends a workload's requests to one server over at most conns
// keep-alive connections, with no retries: a POST is never replayed by
// net/http, and the loader itself never resends.
type loader struct {
	url    string
	inputs []input
	order  []int
	pos    int // next position in the cycled order
	conns  int
	client *http.Client
}

func newLoader(url string, inputs []input, order []int, conns int) *loader {
	return &loader{
		url: url, inputs: inputs, order: order, conns: conns,
		client: &http.Client{
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
			Timeout: requestTimeout,
		},
	}
}

// send posts input k and fills the outcome fields of r.
func (l *loader) send(k int, r *result) {
	r.input = k
	r.sent = time.Now()
	resp, err := l.client.Post(l.url, "image/png", bytes.NewReader(l.inputs[k].body))
	if err == nil {
		r.status = resp.StatusCode
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.done = time.Now()
	r.err = err
}

// closedLoop runs conns clients, each sending its next request as soon
// as the previous answer arrives, until dur has passed.
func (l *loader) closedLoop(dur time.Duration) []result {
	end := time.Now().Add(dur)
	var next atomic.Int64
	per := make([][]result, l.conns)
	var wg sync.WaitGroup
	for c := 0; c < l.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(end) {
				p := int(next.Add(1) - 1)
				var r result
				l.send(l.order[(l.pos+p)%len(l.order)], &r)
				per[c] = append(per[c], r)
			}
		}(c)
	}
	wg.Wait()
	l.pos += int(next.Load())
	var out []result
	for _, rs := range per {
		out = append(out, rs...)
	}
	return out
}

// openLoop sends one request per entry of due (offsets in seconds from
// the phase start), each no earlier than its due time. A request whose
// due time finds every connection busy is sent as soon as one frees;
// its latency still counts from the due time.
func (l *loader) openLoop(due []float64) []result {
	out := make([]result, len(due))
	start := time.Now().Add(20 * time.Millisecond) // let the senders start
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < l.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				r := &out[i]
				r.due = start.Add(time.Duration(due[i] * float64(time.Second)))
				if wait := time.Until(r.due); wait > 0 {
					r.idle = true
					sleep(wait)
				}
				l.send(l.order[(l.pos+i)%len(l.order)], r)
			}
		}()
	}
	wg.Wait()
	l.pos += len(due)
	return out
}

// sleep blocks the calling thread in nanosleep(2). The runtime's timers
// wake about a millisecond late on small VMs; nanosleep wakes within
// about 0.1 ms, which keeps the open-loop schedule honest.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
