package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"snmatch/internal/fault"
	"snmatch/internal/imaging"
	"snmatch/internal/parallel"
	"snmatch/internal/pipeline"
)

// ErrOverloaded is returned by Submit when the batcher's queue is full;
// the HTTP layer maps it to 503 so clients back off instead of piling
// onto an already-saturated pool.
var ErrOverloaded = errors.New("serve: classification queue full")

// ErrClosed is returned for submissions against a closed (or closing)
// batcher. The HTTP layer maps it to 503 with Retry-After, so a client
// riding out a rolling restart retries another replica instead of
// treating the shutdown as a request bug.
var ErrClosed = errors.New("serve: batcher closed")

// ErrPanic wraps a classification panic recovered on the query path —
// a pipeline bug (or an armed panic-mode fault) costs that one query a
// 500 instead of the whole process. The panic value is wrapped, so an
// injected fault stays errors.Is-able as fault.ErrInjected through the
// recovery.
var ErrPanic = errors.New("serve: classification panicked")

// Result is one classified query with its serving metadata.
type Result struct {
	Pred    pipeline.Prediction
	Batched int           // size of the batch this query rode in
	Latency time.Duration // enqueue-to-prediction time
	Extract time.Duration // descriptor-extraction share of the latency (0 when unknown)
	Queue   time.Duration // enqueue-to-batch-start wait (queueing + coalescing)
	Batch   time.Duration // batch classification wall time
	Match   time.Duration // index-scan share (CPU time across shard workers; 0 when unknown)
	Verify  time.Duration // shortlist re-scoring share (approximate backends only)

	// Err is this query's classification failure — the submitter's
	// deadline expiring mid-batch, or a recovered pipeline panic. A
	// failed query leaves Pred zero; its batch neighbours are classified
	// normally and their results are bit-identical to a batch the failed
	// query never joined.
	Err error
}

// job is one queue entry: a scene's crops travelling together. A plain
// classify submits a single-image job; /detect submits one job fanning
// to all of a scene's region crops, so an N-object scene costs one
// queue round-trip instead of N. The submitter's ctx rides along and
// bounds each image's classification.
type job struct {
	ctx      context.Context
	imgs     []*imaging.Image
	enqueued time.Time
	done     chan []Result // one Result per image, in submission order
}

// Batcher coalesces concurrent classification requests against one
// (gallery, pipeline) pair into batches: the first queued entry opens a
// batch, which closes after maxWait or at maxBatch queries, whichever
// comes first (a scene entry counts once per crop). A single-query
// batch fans its one scan out across the gallery shards (latency); a
// multi-query batch classifies queries in parallel on the pool with one
// scan each (throughput). Both paths are bit-identical to the serial
// unsharded pipeline.
type Batcher struct {
	sg       *pipeline.ShardedGallery
	oneShard *pipeline.ShardedGallery // 1-shard view of sg.G: the batch lane's unsharded scan
	p        pipeline.Pipeline
	workers  int

	maxBatch int
	maxWait  time.Duration

	// res is the gallery's backing storage (a snapshot mapping). The
	// batcher owns one reference for its whole lifetime and releases it
	// only after the drain on Close — a query that was still queued
	// when its submitter gave up is classified against memory that is
	// guaranteed to stay mapped.
	res Resource

	queue  chan *job
	stop   chan struct{}
	closed chan struct{}

	// closeMu orders enqueues against Close: submitters hold the read
	// side across the closing check and the queue send, Close flips
	// closing under the write side before closing stop. Every job that
	// ever reaches the queue is therefore enqueued before stop closes
	// and is seen by the loop's drain — no submitter is left waiting on
	// a result that will never come.
	closeMu sync.RWMutex
	closing bool

	obs *serveMetrics // process-wide serving metrics (never nil)
}

// NewBatcher builds a standalone batcher over one (gallery, pipeline)
// pair using the config's batching knobs — the embeddable form of what
// the HTTP server creates per served route. Callers must Close it.
func NewBatcher(sg *pipeline.ShardedGallery, p pipeline.Pipeline, cfg Config) *Batcher {
	cfg = cfg.withDefaults()
	return newBatcher(sg, p, cfg.Workers, cfg.MaxBatch, cfg.QueueCap, cfg.BatchWait, nil)
}

// newBatcher starts the collection loop. queueCap bounds admission:
// submissions beyond it fail fast with ErrOverloaded. A non-nil res is
// an already-retained reference whose ownership transfers to the
// batcher; it is released when Close finishes draining.
func newBatcher(sg *pipeline.ShardedGallery, p pipeline.Pipeline, workers, maxBatch, queueCap int, maxWait time.Duration, res Resource) *Batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if queueCap < maxBatch {
		queueCap = maxBatch
	}
	b := &Batcher{
		sg:       sg,
		oneShard: pipeline.NewShardedGallery(sg.G, 1),
		p:        p,
		workers:  workers,
		maxBatch: maxBatch,
		maxWait:  maxWait,
		res:      res,
		queue:    make(chan *job, queueCap),
		stop:     make(chan struct{}),
		closed:   make(chan struct{}),
		obs:      serveObs(),
	}
	go b.loop()
	return b
}

// Submit enqueues one query and waits for its prediction. It fails fast
// with ErrOverloaded when the queue is full, and returns the context's
// error if the caller gives up while queued (the query is still
// classified; its result is discarded).
func (b *Batcher) Submit(ctx context.Context, img *imaging.Image) (Result, error) {
	return b.submitOne(ctx, img, false)
}

// SubmitWait is Submit with a blocking enqueue: a full queue waits for
// the drain (or the context) instead of refusing. The HTTP layer uses
// it so a JSON batch larger than the queue bound streams through the
// batcher rather than deterministically failing — overall admission
// stays bounded by the server's gate, not by each batcher's queue.
func (b *Batcher) SubmitWait(ctx context.Context, img *imaging.Image) (Result, error) {
	return b.submitOne(ctx, img, true)
}

func (b *Batcher) submitOne(ctx context.Context, img *imaging.Image, wait bool) (Result, error) {
	rs, err := b.submit(ctx, []*imaging.Image{img}, wait)
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// SubmitSceneWait enqueues one scene's crops as a single queue entry and
// waits for all their predictions (in crop order). Compared with one
// SubmitWait per crop this pays the queue hand-off and batch window
// once, and the crops are guaranteed to ride in the same batch. An
// empty crop list returns nil without touching the queue.
func (b *Batcher) SubmitSceneWait(ctx context.Context, imgs []*imaging.Image) ([]Result, error) {
	if len(imgs) == 0 {
		return nil, nil
	}
	return b.submit(ctx, imgs, true)
}

func (b *Batcher) submit(ctx context.Context, imgs []*imaging.Image, wait bool) ([]Result, error) {
	if err := fault.Check(fault.BatcherEnqueue); err != nil {
		return nil, err
	}
	j := &job{ctx: ctx, imgs: imgs, enqueued: time.Now(), done: make(chan []Result, 1)}
	if err := b.enqueue(ctx, j, wait); err != nil {
		return nil, err
	}
	select {
	case rs := <-j.done:
		return rs, firstResultErr(rs)
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-b.closed:
		// The loop has drained and exited; enqueue's ordering guarantees
		// it saw this job, so the result is already buffered.
		select {
		case rs := <-j.done:
			return rs, firstResultErr(rs)
		default:
			// Unreachable under the closeMu ordering; kept so a future
			// regression surfaces as a clean refusal (with the depth
			// gauge rebalanced) rather than a hang.
			b.obs.queueDepth.Add(-1)
			return nil, ErrClosed
		}
	}
}

// enqueue places j in the queue under the read side of closeMu, so the
// send cannot race Close's stop: either the job lands before closing
// flips — and the drain classifies it — or the submitter observes
// closing and gets ErrClosed with its job guaranteed never enqueued.
// A blocking (wait-mode) send held under the read lock cannot deadlock
// Close: the loop keeps draining until stop closes, and stop only
// closes after this lock is released.
func (b *Batcher) enqueue(ctx context.Context, j *job, wait bool) error {
	b.closeMu.RLock()
	defer b.closeMu.RUnlock()
	if b.closing {
		return ErrClosed
	}
	if wait {
		select {
		case b.queue <- j:
			b.obs.queueDepth.Add(1)
		case <-ctx.Done():
			return ctx.Err()
		}
	} else {
		select {
		case b.queue <- j:
			b.obs.queueDepth.Add(1)
		default:
			b.obs.sheds.Inc()
			return ErrOverloaded
		}
	}
	return nil
}

// firstResultErr surfaces a job's first per-image failure as the
// submission error (single-image submissions have exactly one).
func firstResultErr(rs []Result) error {
	for i := range rs {
		if rs[i].Err != nil {
			return rs[i].Err
		}
	}
	return nil
}

// Close stops the collection loop after it drains the queued jobs. It
// is idempotent; every call blocks until the drain completes.
func (b *Batcher) Close() {
	b.closeMu.Lock()
	if !b.closing {
		b.closing = true
		close(b.stop)
	}
	b.closeMu.Unlock()
	<-b.closed
}

func (b *Batcher) loop() {
	defer close(b.closed)
	if b.res != nil {
		// Released only after the drain below: every job this loop will
		// ever classify has finished by then.
		defer b.res.Release()
	}
	for {
		select {
		case j := <-b.queue:
			b.collect(j)
		case <-b.stop:
			// Drain the jobs that were enqueued before closing flipped
			// (enqueue's lock ordering guarantees there are no others),
			// then exit.
			for {
				select {
				case j := <-b.queue:
					b.run([]*job{j}, len(j.imgs))
				default:
					return
				}
			}
		}
	}
}

// collect grows a batch around the first job until maxWait elapses or
// the batch holds maxBatch images (a scene job counts all its crops),
// then classifies it.
func (b *Batcher) collect(first *job) {
	batch := append(make([]*job, 0, b.maxBatch), first)
	total := len(first.imgs)
	if b.maxWait > 0 && b.maxBatch > 1 {
		timer := time.NewTimer(b.maxWait)
		defer timer.Stop()
	fill:
		for total < b.maxBatch {
			select {
			case j := <-b.queue:
				batch = append(batch, j)
				total += len(j.imgs)
			case <-timer.C:
				break fill
			case <-b.stop:
				break fill
			}
		}
	} else {
		// No coalescing window: just take whatever is already queued.
	fillNow:
		for total < b.maxBatch {
			select {
			case j := <-b.queue:
				batch = append(batch, j)
				total += len(j.imgs)
			default:
				break fillNow
			}
		}
	}
	b.run(batch, total)
}

// recoverQuery converts a classification panic into a per-query error:
// the worker survives, the panics counter ticks, and an error panic
// value stays unwrappable (so an injected fault keeps reading as
// fault.ErrInjected through the recovery).
func (b *Batcher) recoverQuery(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	b.obs.panics.Inc()
	if e, ok := r.(error); ok {
		//lint:allow noalloc panic recovery is the cold path; a recovered query already paid a stack unwind
		*errp = fmt.Errorf("%w: %w", ErrPanic, e)
	} else {
		//lint:allow noalloc panic recovery is the cold path; a recovered query already paid a stack unwind
		*errp = fmt.Errorf("%w: %v", ErrPanic, r)
	}
}

// classify is one query's classification under its own job deadline,
// with per-query panic recovery so one poisoned query cannot take its
// batch neighbours (or the process) down. The single-query lane passes
// the sharded gallery, so its one scan fans out across the shards (a
// shard-worker panic is re-panicked here, in the submitting goroutine,
// by the pool); the batch lane passes the 1-shard view, one unsharded
// scan per image.
//
//snmatch:noalloc
func (b *Batcher) classify(ctx context.Context, sg *pipeline.ShardedGallery, img *imaging.Image) (pred pipeline.Prediction, stats pipeline.QueryStats, err error) {
	defer b.recoverQuery(&err)
	return sg.ClassifyStatsCtx(ctx, b.p, img)
}

func (b *Batcher) run(batch []*job, total int) {
	// Book the batch: the jobs have left the queue (the gauge counts
	// channel occupancy plus at most one batch being assembled), the
	// batch shape is final, and the oldest job's enqueue bounds the
	// coalescing wait.
	start := time.Now()
	b.obs.queueDepth.Add(-int64(len(batch)))
	b.obs.batchSize.Observe(int64(total))
	b.obs.coalesce.ObserveDuration(int64(start.Sub(batch[0].enqueued)))
	if total == 1 {
		j := batch[0]
		pred, stats, err := b.classify(j.ctx, b.sg, j.imgs[0])
		now := time.Now()
		j.done <- []Result{{
			Pred: pred, Batched: 1, Err: err,
			Latency: now.Sub(j.enqueued), Extract: stats.Extract,
			Queue: start.Sub(j.enqueued), Batch: now.Sub(start),
			Match: stats.Match, Verify: stats.Verify,
		}}
		return
	}
	flat := make([]*imaging.Image, 0, total)
	owner := make([]*job, 0, total)
	for _, j := range batch {
		for _, img := range j.imgs {
			flat = append(flat, img)
			owner = append(owner, j)
		}
	}
	preds := make([]pipeline.Prediction, total)
	stats := make([]pipeline.QueryStats, total)
	errs := make([]error, total)
	parallel.ForEach(b.workers, total, func(i int) {
		preds[i], stats[i], errs[i] = b.classify(owner[i].ctx, b.oneShard, flat[i])
	})
	now := time.Now()
	off := 0
	for _, j := range batch {
		rs := make([]Result, len(j.imgs))
		for i := range rs {
			st := stats[off+i]
			rs[i] = Result{
				Pred: preds[off+i], Batched: total, Err: errs[off+i],
				Latency: now.Sub(j.enqueued), Extract: st.Extract,
				Queue: start.Sub(j.enqueued), Batch: now.Sub(start),
				Match: st.Match, Verify: st.Verify,
			}
		}
		off += len(j.imgs)
		j.done <- rs
	}
}
