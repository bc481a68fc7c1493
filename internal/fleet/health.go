package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// probeLoop actively health-checks every peer each ProbeInterval (jittered
// ±10% so a fleet restarted in lockstep does not probe in lockstep). Peers
// are probed concurrently so one black-holed peer cannot delay the others'
// probes past their timeout.
func (f *Fleet) probeLoop() {
	defer f.wg.Done()
	t := time.NewTimer(jitter(f.cfg.ProbeInterval))
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
		}
		f.probeAll()
		t.Reset(jitter(f.cfg.ProbeInterval))
	}
}

// jitter spreads d uniformly over [0.9d, 1.1d].
func jitter(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.9 + 0.2*rand.Float64()))
}

func (f *Fleet) probeAll() {
	f.mu.Lock()
	addrs := make([]string, 0, len(f.peers))
	for a := range f.peers {
		addrs = append(addrs, a)
	}
	f.mu.Unlock()
	var wg sync.WaitGroup
	for _, a := range addrs {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			f.probeOne(addr)
		}(a)
	}
	wg.Wait()
}

// probeOne performs a single readiness probe. Probing readiness — not
// liveness — is what keeps the ring from routing to an instance that is
// alive but replaying its snapshot or draining.
func (f *Fleet) probeOne(addr string) {
	f.counts.Add("probes", 1)
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/readyz", nil)
	if err != nil {
		f.notePeer(addr, false, fmt.Sprintf("probe: %v", err))
		return
	}
	resp, err := f.client.Do(req)
	if err != nil {
		f.counts.Add("probe_failures", 1)
		f.notePeer(addr, false, fmt.Sprintf("probe: %v", err))
		return
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		f.counts.Add("probe_failures", 1)
		f.notePeer(addr, false, fmt.Sprintf("probe: readiness %d", resp.StatusCode))
		return
	}
	f.notePeer(addr, true, "")
}

// notePeer folds one health observation — a probe result, or a passive
// transport failure seen by the forwarding client — into the peer's
// rise/fall hysteresis. fall consecutive failures eject the peer from the
// candidate sets; rise consecutive successful probes re-admit it. With
// probing disabled the fleet has no way to re-admit, so observations are
// ignored and peers stay permanently up.
func (f *Fleet) notePeer(addr string, ok bool, detail string) {
	if f.cfg.ProbeInterval < 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.peers[addr]
	if st == nil {
		return // peer removed by a concurrent SetPeers
	}
	if ok {
		st.consecFail, st.consecOK = 0, st.consecOK+1
		st.lastErr = ""
		if !st.up && st.consecOK >= rise {
			st.up = true
			st.changed = time.Now()
			f.counts.Add("readmitted", 1)
			f.log.Printf("fleet: peer %s up after %d consecutive probes", addr, st.consecOK)
		}
		return
	}
	st.consecOK, st.consecFail = 0, st.consecFail+1
	st.lastErr = detail
	if st.up && st.consecFail >= fall {
		st.up = false
		st.changed = time.Now()
		f.counts.Add("ejected", 1)
		f.log.Printf("fleet: peer %s ejected after %d consecutive failures (%s)", addr, st.consecFail, detail)
	}
}
