package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one dlserve process the benchmark launched.
type proc struct {
	name string
	args []string
	addr string // host:port it serves on
	log  string // file its stderr goes to
	cmd  *exec.Cmd
}

// cluster is the dlserve deployment of one setup: two nodes with op
// logs on disk and one coordinator, all on loopback.
type cluster struct {
	bin   string
	dir   string
	nodes []*proc
	coord *proc
	// streamed marks that the ingest workload's stream has run, so the
	// cluster now holds the corpus the reference answers describe.
	streamed bool
}

// clusterSpec says how to launch a workload's cluster.
type clusterSpec struct {
	coordArgs []string // extra coordinator flags
	traced    bool     // -slow-query-ms -1 on every process
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startCluster launches two nodes and a coordinator under dir and
// waits until all three answer /healthz.
func startCluster(bin, dir string, spec clusterSpec) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &cluster{bin: bin, dir: dir}
	var trace []string
	if spec.traced {
		trace = []string{"-slow-query-ms", "-1"}
	}
	var urls []string
	for i := 0; i < 2; i++ {
		addr, err := freePort()
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("node%d", i)
		args := append([]string{"node", "-addr", addr, "-oplog-dir", filepath.Join(dir, name+"-oplog")}, trace...)
		c.nodes = append(c.nodes, &proc{name: name, args: args, addr: addr, log: filepath.Join(dir, name+".log")})
		urls = append(urls, "http://"+addr)
	}
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	args := append([]string{"coordinator", "-addr", addr, "-nodes", strings.Join(urls, ",")}, spec.coordArgs...)
	c.coord = &proc{name: "coordinator", args: append(args, trace...), addr: addr, log: filepath.Join(dir, "coordinator.log")}
	for _, p := range c.procs() {
		if err := c.launch(p); err != nil {
			c.stop()
			return nil, err
		}
	}
	for _, p := range c.procs() {
		if err := waitHealthy(p.addr, 30*time.Second); err != nil {
			c.stop()
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return c, nil
}

func (c *cluster) procs() []*proc { return append(append([]*proc(nil), c.nodes...), c.coord) }

// launch starts p, appending its stderr to its log file. The process
// is killed if the benchmark itself dies.
func (c *cluster) launch(p *proc) error {
	f, err := os.OpenFile(p.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(c.bin, p.args...)
	cmd.Stderr = f
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return fmt.Errorf("start %s: %w", p.name, err)
	}
	f.Close() // the child holds its own descriptor
	p.cmd = cmd
	return nil
}

// kill sends SIGKILL to p and waits until it has exited.
func (p *proc) kill() {
	if p.cmd == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Kill() // already exited is fine
	_ = p.cmd.Wait()         // the exit status of a killed process carries nothing
	p.cmd = nil
}

// stop kills every process of the cluster and waits for each.
func (c *cluster) stop() {
	for _, p := range c.procs() {
		p.kill()
	}
}

// restartNode kills node i with SIGKILL and boots it again on the same
// op-log directory, returning once it answers /healthz.
func (c *cluster) restartNode(i int) error {
	p := c.nodes[i]
	p.kill()
	if err := c.launch(p); err != nil {
		return err
	}
	return waitHealthy(p.addr, 60*time.Second)
}

// waitHealthy polls GET /healthz until it answers 200.
func waitHealthy(addr string, limit time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("not healthy after %v (last error: %v)", limit, err)
		case <-time.After(time.Millisecond): // fine enough to time a ~0.1 s restart
		}
	}
}

// peakRSSMiB sums VmHWM, the peak resident set, over the live server
// processes.
func (c *cluster) peakRSSMiB() (float64, error) {
	total := 0.0
	for _, p := range c.procs() {
		if p.cmd == nil {
			continue
		}
		kb, err := procStatusKB(p.cmd.Process.Pid, "VmHWM:")
		if err != nil {
			return 0, err
		}
		total += kb / 1024
	}
	return total, nil
}

// procStatusKB reads one kB field of /proc/<pid>/status.
func procStatusKB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			return strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// oplogBytes sums the size of every node's op-log directory.
func (c *cluster) oplogBytes() int64 {
	var total int64
	for _, p := range c.nodes {
		_ = filepath.Walk(filepath.Join(c.dir, p.name+"-oplog"), func(_ string, fi os.FileInfo, err error) error {
			if err == nil && !fi.IsDir() {
				total += fi.Size()
			}
			return nil
		})
	}
	return total
}
