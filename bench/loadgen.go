package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"surfknn/internal/server/api"
)

// clients is the closed loop's width: callers of this service wait for
// their answer before asking again, and the machine has two cores.
const clients = 2

// sampleEvery picks the read ops whose answers are kept for the in-process
// replay: one in ten.
const sampleEvery = 10

// sample is what the load generator keeps of one executed op.
type sample struct {
	op  *op
	idx int // position in the op list
	ok  bool
	err string // why the op failed
	// wrong: the server answered 200 with an answer that fails verification
	// (as opposed to refusing, timing out or dropping the connection).
	wrong bool
	wall  int64 // ns from the phase's start to the op's start
	// Client-side spans, in ns. The op's latency is enc+rt+dec; the
	// structural check (ver) is the benchmark's own work.
	enc, rt, dec, ver int64
	// From the answer.
	cpuUs  int64 // cost.cpu_us: engine time the server reports
	pages  int64 // cost.pages
	hit    bool  // answered from the result cache or a safe region
	epoch  uint64
	noop   bool           // a delete that removed nothing
	answer []api.Neighbor // kept on sampled reads only
}

func (s *sample) latency() int64 { return s.enc + s.rt + s.dec }

// driver is the load generator's shared state for one deployment.
type driver struct {
	base  string         // "http://host:port" of the front process
	known map[int64]bool // every object id an answer may name
	mu    sync.Mutex
	subOf map[int]uint64 // walker → subscription id, filled by the warm-up
}

func newDriver(addr string, known map[int64]bool) *driver {
	return &driver{base: "http://" + addr, known: known, subOf: make(map[int]uint64)}
}

// phaseResult is one executed phase (warm-up, timed window, update tail).
type phaseResult struct {
	samples []sample // in completion order per client, clients concatenated
	began   time.Time
	wallS   float64 // first op's start to last op's end
	next    int     // index of the first op of the list not taken
}

// phase says how to run one op list.
type phase struct {
	list    *opList
	from    int             // index of the first op to run
	limit   time.Duration   // stop taking ops after this long (0: run the list out)
	clients int             // closed-loop clients
	every   int             // keep every every-th read answer for replay (0: none)
	stop    <-chan struct{} // stop taking ops once closed (nil: never)
}

// run executes the phase's ops with its closed-loop clients: each takes the
// list's next op when idle. The phase ends when the list is exhausted or the
// limit has passed; ops in flight complete and count.
func (d *driver) run(ph phase) phaseResult {
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		results = make([][]sample, ph.clients)
		start   = time.Now()
	)
	next.Store(int64(ph.from))
	for c := 0; c < ph.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// One keep-alive connection per client.
			hc := &http.Client{
				Timeout:   60 * time.Second,
				Transport: &http.Transport{MaxIdleConnsPerHost: 1},
			}
			defer hc.CloseIdleConnections()
			for {
				if ph.limit > 0 && time.Since(start) >= ph.limit {
					return
				}
				i := int(next.Add(1)) - 1
				o := ph.list.at(i)
				if o == nil {
					return
				}
				s := d.exec(hc, o, ph.every > 0 && i%ph.every == 0)
				s.idx = i
				s.wall = int64(time.Since(start)) - s.latency() - s.ver
				results[c] = append(results[c], s)
			}
		}(c)
	}
	wg.Wait()
	res := phaseResult{began: start, wallS: time.Since(start).Seconds(), next: ph.from}
	for _, r := range results {
		res.samples = append(res.samples, r...)
	}
	for i := range res.samples {
		res.next = max(res.next, res.samples[i].idx+1)
	}
	return res
}

// exec sends one op and checks the answer's structure.
func (d *driver) exec(hc *http.Client, o *op, keep bool) sample {
	s := sample{op: o}
	var (
		method = http.MethodPost
		path   string
		body   any
	)
	switch o.kind {
	case opKNN:
		path, body = "/v1/knn", api.KNNRequest{X: o.x, Y: o.y, K: o.k, Sched: o.sched}
	case opQuery:
		path, body = "/v1/query", api.QueryRequest{Q: o.stmt}
	case opSubscribe:
		path, body = "/v1/subscribe", api.SubscribeRequest{X: o.x, Y: o.y, K: o.k, Sched: o.sched}
	case opMove:
		d.mu.Lock()
		id := d.subOf[o.walker]
		d.mu.Unlock()
		path, body = "/v1/subscribe/"+strconv.FormatUint(id, 10)+"/move", api.MoveRequest{X: o.x, Y: o.y}
	case opUpsert:
		path, body = "/v1/objects", api.UpsertRequest{Objects: o.objs}
	case opDelete:
		method, path, body = http.MethodDelete, "/v1/objects", api.DeleteRequest{IDs: o.ids}
	}

	t0 := time.Now()
	payload, err := json.Marshal(body)
	if err != nil {
		s.err = fmt.Sprintf("encoding request: %v", err)
		return s
	}
	t1 := time.Now()
	s.enc = int64(t1.Sub(t0))
	status, hdr, raw, err := roundtrip(hc, method, d.base+path, payload)
	t2 := time.Now()
	s.rt = int64(t2.Sub(t1))
	if err != nil {
		s.err = err.Error()
		return s
	}
	if status != http.StatusOK {
		s.err = fmt.Sprintf("%s %s: status %d: %.200s", method, path, status, raw)
		return s
	}

	var (
		res   api.Result
		subID uint64
	)
	switch o.kind {
	case opKNN:
		err = json.Unmarshal(raw, &res)
	case opQuery:
		var q api.QueryResponse
		err = json.Unmarshal(raw, &q)
		res = q.Result
	case opSubscribe, opMove:
		var sr api.SubscribeResponse
		err = json.Unmarshal(raw, &sr)
		res, subID = sr.Result, sr.ID
	case opUpsert:
		var u api.UpdateResponse
		err = json.Unmarshal(raw, &u)
		s.epoch = u.Epoch
	case opDelete:
		var del api.DeleteResponse
		err = json.Unmarshal(raw, &del)
		s.epoch, s.noop = del.Epoch, del.Deleted == 0
	}
	t3 := time.Now()
	s.dec = int64(t3.Sub(t2))
	if err != nil {
		s.err, s.wrong = fmt.Sprintf("decoding %s answer: %v", path, err), true
		return s
	}

	if o.kind.isRead() || o.kind == opSubscribe {
		s.cpuUs, s.pages = res.Cost.CPUUs, res.Cost.Pages
		s.hit = hdr.Get("X-Cache") == "hit" || hdr.Get("X-Safe-Region") == "hit"
		if e, perr := strconv.ParseUint(hdr.Get("X-Epoch"), 10, 64); perr == nil {
			s.epoch = e
		}
		if err := checkAnswer(res, o.k, d.known); err != nil {
			s.err = fmt.Sprintf("%s answer: %v", path, err)
		} else if s.pages <= 0 && hdr.Get("X-Safe-Region") != "hit" {
			// Only a safe-region hit costs nothing; a cache hit replays the
			// cached body, cost included.
			s.err = fmt.Sprintf("%s answer: cost.pages = %d", path, s.pages)
		}
		if keep {
			s.answer = res.Neighbors
		}
		if o.kind == opSubscribe {
			d.mu.Lock()
			d.subOf[o.walker] = subID
			d.mu.Unlock()
		}
	} else if hdr.Get("X-Epoch") != strconv.FormatUint(s.epoch, 10) {
		s.err = fmt.Sprintf("%s: X-Epoch %q disagrees with body epoch %d", path, hdr.Get("X-Epoch"), s.epoch)
	}
	s.ver = int64(time.Since(t3))
	s.ok = s.err == ""
	s.wrong = !s.ok
	return s
}

// roundtrip is one HTTP exchange: send the payload, read the whole body.
func roundtrip(hc *http.Client, method, url string, payload []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(payload))
	if err != nil {
		return 0, nil, nil, fmt.Errorf("building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("reading %s answer: %w", url, err)
	}
	return resp.StatusCode, resp.Header, raw, nil
}
