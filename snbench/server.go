package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running snserve process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:PORT
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// freePort asks the kernel for an unused loopback port. Another process
// could take it before snserve binds; boot then fails and says so.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// boot starts snserve on snap with its default flags (plus -mmap when
// asked) and returns once it has answered first correctly: it sends
// first repeatedly until a 200 arrives, and check judges that answer.
// The duration runs from exec to that answer.
func boot(bin, snap string, mmap bool, logw io.Writer, path string, first []byte, check func([]byte) error) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-snapshot", snap}
	if mmap {
		args = append(args, "-mmap")
	}
	s := &server{base: fmt.Sprintf("http://127.0.0.1:%d", port), exited: make(chan struct{})}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout, s.cmd.Stderr = logw, logw
	// Should the benchmark die, the kernel kills the server too.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	// A fresh client per boot: no idle connection may outlive the
	// previous server.
	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 30 * time.Second}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start snserve: %w", err)
	}
	go func() { s.err = s.cmd.Wait(); close(s.exited) }()
	deadline := start.Add(60 * time.Second)
	for {
		status, body, err := post(c, s.base+path, first)
		if err == nil {
			setup := time.Since(start)
			if status != http.StatusOK {
				err = fmt.Errorf("first answer: status %d: %s", status, bytes.TrimSpace(body))
			} else {
				err = check(body)
			}
			if err != nil {
				s.stop()
				return nil, 0, err
			}
			return s, setup, nil
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("snserve exited during boot: %v", s.err)
		default:
		}
		sleep(100 * time.Microsecond) // a runtime timer would add a millisecond to setup_s
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("snserve did not answer within 60s: %w", err)
		}
	}
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// has not exited within ten seconds. It returns once the process is gone.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "image/png", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// promSample maps each Prometheus series, written as name{labels}
// exactly as exposed, to its value.
type promSample map[string]float64

// parseProm reads the Prometheus text exposition format: one
// "series value" per line, comments and blank lines skipped.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// scrape fetches and parses the server's /metrics page.
func (s *server) scrape(c *http.Client) (promSample, error) {
	resp, err := c.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// add accumulates after-before of every series into p; a series absent
// before reads 0.
func (p promSample) add(before, after promSample) {
	for k, v := range after {
		p[k] += v - before[k]
	}
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 for user space.
const clockTick = 10 * time.Millisecond

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid string) (time.Duration, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after its ')'.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(string(raw[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("proc stat: too few fields")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("proc stat: %w", err)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// procMiB returns one of the memory fields of /proc/<pid>/status, such
// as VmRSS (resident set now) or VmHWM (its peak), in MiB.
func procMiB(pid, field string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("proc status: odd %s line %q", field, line)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("proc status: no %s", field)
}

// cpuTicks returns the machine-wide CPU time counters from /proc/stat:
// all ticks, and the ticks stolen by the hypervisor.
func cpuTicks() (total, steal int64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("proc stat: odd cpu line %q", line)
	}
	// user nice system idle iowait irq softirq steal; the guest fields
	// after them are already counted in user and nice.
	for i, v := range f[1:9] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc stat: %w", err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal, nil
}
