package main

import (
	"context"
	"math"
	"sync"
	"time"

	"repro/internal/workload"
)

// arrival is one request of an open-loop schedule, due at Due after the
// schedule starts.
type arrival struct {
	Due time.Duration
	Req request
}

// poissonSchedule draws arrivals at the given mean rate for d, with
// exponentially distributed gaps (independent users), each request drawn by
// pick.
func poissonSchedule(rng *workload.RNG, rate float64, d time.Duration, pick func(*workload.RNG) request) []arrival {
	var out []arrival
	var at float64 // seconds
	for {
		at += -math.Log(1-rng.Float64()) / rate
		due := time.Duration(at * float64(time.Second))
		if due >= d {
			return out
		}
		req := pick(rng)
		req.ID = len(out)
		out = append(out, arrival{Due: due, Req: req})
	}
}

// sent is the timing of one dispatched request.
type sent struct {
	// Late is how far behind its due time the generator handed the request
	// to a connection's queue: the generator's own lateness.
	Late time.Duration
	// Start is when a connection began sending it, Done when the response
	// was read, both relative to the schedule start.
	Start, Done time.Duration
	// Latency is Done minus the due time: it includes any wait behind
	// earlier requests, so a stall is charged to every request it delays.
	Latency time.Duration
	Res     response
}

// openLoop dispatches each arrival at its due time, regardless of how many
// earlier requests are still outstanding, to conns connections that take
// requests in due order. It returns one entry per arrival and the number of
// requests still queued when the schedule ended (the backlog). send must
// return once ctx is done.
func openLoop(ctx context.Context, arrivals []arrival, conns int, send func(context.Context, request) response) ([]sent, int) {
	out := make([]sent, len(arrivals))
	// Sized to the number of sends, so the generator never blocks on a
	// busy system: an open loop keeps sending on schedule.
	queue := make(chan int, len(arrivals))
	var queued sync.WaitGroup
	start := time.Now()
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s := &out[i]
				s.Start = time.Since(start)
				s.Res = send(ctx, arrivals[i].Req)
				s.Done = time.Since(start)
				s.Latency = s.Done - arrivals[i].Due
			}
		}()
	}
	backlog := 0
	queued.Add(1)
	go func() {
		defer queued.Done()
		defer close(queue)
		for i, a := range arrivals {
			if d := time.Until(start.Add(a.Due)); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-ctx.Done():
					t.Stop()
					return
				case <-t.C:
				}
			}
			out[i].Late = time.Since(start) - a.Due
			queue <- i
		}
		backlog = len(queue)
	}()
	queued.Wait()
	wg.Wait()
	return out, backlog
}

// closedLoop keeps conns connections busy back to back for d and returns the
// completed requests.
func closedLoop(ctx context.Context, d time.Duration, conns int, next func() request, send func(context.Context, request) response) []sent {
	var mu sync.Mutex
	var out []sent
	start := time.Now()
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d && ctx.Err() == nil {
				mu.Lock()
				req := next()
				mu.Unlock()
				t0 := time.Since(start)
				res := send(ctx, req)
				t1 := time.Since(start)
				mu.Lock()
				out = append(out, sent{Start: t0, Done: t1, Latency: t1 - t0, Res: res})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}
