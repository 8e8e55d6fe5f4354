package main

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"secmr/internal/core"
	"secmr/internal/homo"
	"secmr/internal/oblivious"
	"secmr/internal/obs"
)

// timeEach runs fn reps times and returns the median single-call time.
func timeEach(reps int, fn func(i int)) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t := time.Now()
		fn(i)
		ds[i] = float64(time.Since(t))
	}
	return time.Duration(median(ds))
}

// microCodec times the wire codec on RuleCipherMsgs captured from the
// traced run, with the causal envelope the transports put on them.
func microCodec(rep *report, msgs []core.RuleCipherMsg, scheme homo.Scheme) {
	adopter, ok := scheme.(homo.Adopter)
	if len(msgs) == 0 || !ok {
		return
	}
	cc := obs.CausalCtx{Origin: 1, OSeq: 1000, Hops: 2}
	frames := make([][]byte, len(msgs))
	var buf []byte
	var total int
	enc := timeEach(len(msgs), func(i int) { buf, _ = core.AppendMessageCtx(buf[:0], msgs[i], cc) })
	for i, m := range msgs {
		f, err := core.AppendMessageCtx(nil, m, cc)
		if err != nil {
			rep.fail("codec: encode captured message: %v", err)
			return
		}
		frames[i] = f
		total += len(f)
	}
	dec := timeEach(len(frames), func(i int) {
		if _, _, err := core.DecodeMessageCtx(frames[i], adopter); err != nil {
			rep.fail("codec: decode captured message: %v", err)
		}
	})
	rep.set("core.codec_encode_ns_per_msg", float64(enc))
	rep.set("core.codec_decode_ns_per_msg", float64(dec))
	rep.set("core.codec_bytes_per_msg", float64(total)/float64(len(frames)))
}

// microOblivious times the counter operations of one SFE round at the
// workload's scheme: a counter add, a rerandomise, and Blind+SignOf, on
// counters with four stamp slots (a resource with three tree neighbours).
func microOblivious(rep *report, scheme homo.Scheme, w *workload) {
	const slots = 4
	reps := 200
	if w.Crypto == "paillier" {
		reps = 12
	}
	a := oblivious.NewZero(scheme, slots)
	b := oblivious.NewZero(scheme, slots)
	rep.set("oblivious.add_us", float64(timeEach(reps, func(int) { oblivious.Add(scheme, a, b) }))/1e3)
	rep.set("oblivious.rerandomize_us", float64(timeEach(reps, func(int) { oblivious.Rerandomize(scheme, a) }))/1e3)
	rng := rand.New(rand.NewSource(1))
	v := scheme.EncryptInt(-37)
	rep.set("oblivious.blind_signof_us", float64(timeEach(reps, func(int) {
		if oblivious.SignOf(scheme, oblivious.Blind(scheme, v, 16, rng)) != -1 {
			rep.fail("oblivious: blinded sign of -37 is not -1")
		}
	}))/1e3)
}

// microHandler times one handler in-process on a captured request: no
// socket, a fresh recorder per call. It returns the median call time and
// the mean allocations per call.
func microHandler(h http.Handler, reps int, method, target string, body []byte) (time.Duration, float64, int) {
	var before, after runtime.MemStats
	status := 0
	runtime.ReadMemStats(&before)
	d := timeEach(reps, func(int) {
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		status = rec.Code
	})
	runtime.ReadMemStats(&after)
	return d, float64(after.Mallocs-before.Mallocs) / float64(reps), status
}
