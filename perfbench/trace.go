package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2

// cpuTime reads the process's CPU clock: the CPU time of every thread,
// so the garbage collector's background workers count along with the
// driving goroutine. Unlike the wall clock it leaves out time the
// hypervisor gives other guests (steal).
func cpuTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("perfbench: clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano())
}

// tracer records spans around the benchmark's calls into the
// simulator. Every duration is process CPU time (cpuTime).
// Off, do only times the call. On, do also records a span
// (name, start, end, parent) in memory and labels the call's CPU
// profile samples with the span's path, so a sample can be charged to
// the span it ran in; a CPU profile runs while the repetition's set-up
// and timed phase do.
type tracer struct {
	on      bool
	t0      time.Duration
	ctx     context.Context
	spans   []span
	stack   []int         // indexes of the open spans, innermost last
	segment *bytes.Buffer // the CPU profile being written, nil when paused
	profile [][]byte      // finished CPU profile segments
}

// span is one traced call. parent indexes the enclosing span, -1 for
// none; path joins the names from the outermost span down.
type span struct {
	name, path string
	start, end time.Duration
	parent     int
}

// do runs fn as one span and returns its CPU time.
func (t *tracer) do(name string, fn func()) time.Duration {
	if !t.on {
		start := cpuTime()
		fn()
		return cpuTime() - start
	}
	parent, path := -1, name
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
		path = t.spans[parent].path + "/" + name
	}
	id := len(t.spans)
	t.stack = append(t.stack, id)
	outer := t.ctx
	start := cpuTime()
	t.spans = append(t.spans, span{name: name, path: path, parent: parent, start: start - t.t0})
	pprof.Do(outer, pprof.Labels("span", path), func(ctx context.Context) {
		t.ctx = ctx
		fn()
	})
	d := cpuTime() - start
	t.ctx = outer
	t.spans[id].end = t.spans[id].start + d
	t.stack = t.stack[:len(t.stack)-1]
	return d
}

// begin starts the repetition's CPU profile when tracing.
func (t *tracer) begin() error {
	if !t.on {
		return nil
	}
	t.t0 = cpuTime()
	t.ctx = context.Background()
	return t.resume()
}

// end stops the repetition's CPU profile.
func (t *tracer) end() {
	if t.on && t.segment != nil {
		t.stop()
	}
}

// untimed runs fn — verification, heap measurement, re-settling —
// with the CPU profile paused, so shares describe only set-up and the
// timed phase.
func (t *tracer) untimed(fn func()) error {
	if !t.on {
		fn()
		return nil
	}
	t.stop()
	fn()
	return t.resume()
}

func (t *tracer) resume() error {
	t.segment = new(bytes.Buffer)
	if err := pprof.StartCPUProfile(t.segment); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	return nil
}

func (t *tracer) stop() {
	pprof.StopCPUProfile()
	t.profile = append(t.profile, t.segment.Bytes())
	t.segment = nil
}

// ---- CPU profile attribution ----

// unlabeled is the span path of samples taken outside every span
// (GC workers and other goroutines carry no labels).
const unlabeled = "(unlabeled)"

// profileTally sums CPU time (ns) by layer, overall and per span path.
type profileTally struct {
	total  int64
	layers map[string]int64
	spans  map[string]map[string]int64
}

// add parses CPU profile segments and charges each sample to the
// layer of its innermost gs3 frame.
func (p *profileTally) add(segments [][]byte) error {
	if p.layers == nil {
		p.layers = map[string]int64{}
		p.spans = map[string]map[string]int64{}
	}
	for _, seg := range segments {
		samples, err := parseProfile(seg)
		if err != nil {
			return err
		}
		for _, s := range samples {
			layer := layerOf(s.stack)
			p.total += s.ns
			p.layers[layer] += s.ns
			path := s.span
			if path == "" {
				path = unlabeled
			}
			if p.spans[path] == nil {
				p.spans[path] = map[string]int64{}
			}
			p.spans[path][layer] += s.ns
		}
	}
	return nil
}

// share is layer's fraction of all sampled CPU time.
func (p *profileTally) share(layer string) float64 {
	if p.total == 0 {
		return 0
	}
	return float64(p.layers[layer]) / float64(p.total)
}

// spanShares formats one span's CPU shares by layer, largest first.
func (p *profileTally) spanShares(path string) string {
	byLayer := p.spans[path]
	var sum int64
	layers := make([]string, 0, len(byLayer))
	for l, ns := range byLayer {
		sum += ns
		layers = append(layers, l)
	}
	if sum == 0 {
		return "-"
	}
	sort.Slice(layers, func(i, j int) bool {
		if byLayer[layers[i]] != byLayer[layers[j]] {
			return byLayer[layers[i]] > byLayer[layers[j]]
		}
		return layers[i] < layers[j]
	})
	parts := make([]string, len(layers))
	for i, l := range layers {
		parts[i] = fmt.Sprintf("%s=%.3f", l, float64(byLayer[l])/float64(sum))
	}
	return fmt.Sprintf("%.0fms: %s", float64(sum)/1e6, strings.Join(parts, " "))
}

// layerOf charges a stack (innermost frame first) to the gs3 package of
// its innermost gs3 frame, so a map lookup inside radio counts as
// radio, not runtime. Frames of other gs3 packages and of the
// benchmark itself count as "other"; a stack with neither is runtime
// work (GC, scheduler).
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "gs3/internal/"); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			if slices.Contains(shareLayers, pkg) {
				return pkg
			}
			return "other"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "gs3.") {
			return "other"
		}
	}
	return "runtime"
}

// cpuSample is one decoded profile sample.
type cpuSample struct {
	span  string   // the "span" label, "" when absent
	stack []string // function names, innermost first
	ns    int64    // CPU time
}

// parseProfile decodes the parts of a gzipped pprof protobuf profile
// (github.com/google/pprof/proto/profile.proto) the attribution needs:
// samples with their stacks, CPU time and span label.
func parseProfile(data []byte) ([]cpuSample, error) {
	if len(data) == 0 {
		return nil, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // (key, str) string-table indexes
	}
	var (
		samples []rawSample
		strs    []string
		locs    = map[uint64][]uint64{} // location → function ids, innermost first
		funcs   = map[uint64]int64{}    // function → name index
	)
	err = walkFields(raw, func(f field) error {
		switch f.num {
		case 2: // Sample
			var s rawSample
			err := walkFields(f.data, func(g field) error {
				switch g.num {
				case 1:
					s.locs = append(s.locs, g.uints()...)
				case 2:
					for _, v := range g.uints() {
						s.values = append(s.values, int64(v))
					}
				case 3:
					var kv [2]int64
					err := walkFields(g.data, func(h field) error {
						if h.num == 1 || h.num == 2 {
							kv[h.num-1] = int64(h.v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkFields(f.data, func(g field) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // Line
					return walkFields(g.data, func(h field) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := walkFields(f.data, func(g field) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decode cpu profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("decode cpu profile: sample without a cpu time value")
		}
		cs := cpuSample{ns: s.values[1]}
		for _, kv := range s.labels {
			if str(kv[0]) == "span" {
				cs.span = str(kv[1])
			}
		}
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				cs.stack = append(cs.stack, str(funcs[fn]))
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// field is one protobuf field: a varint or fixed value in v, or the
// bytes of a length-delimited one in data.
type field struct {
	num  int
	wire int
	v    uint64
	data []byte
}

// uints returns a repeated integer field's values, packed or not.
func (f field) uints() []uint64 {
	if f.wire != 2 {
		return []uint64{f.v}
	}
	var out []uint64
	b := f.data
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, v)
		b = b[n:]
	}
	return out
}

// walkFields calls fn for each field of one protobuf message.
func walkFields(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}
