package main

import (
	"fmt"
	gonet "net"
	"os"
	"sync"
	"time"

	"dsmtx/internal/core"
	"dsmtx/internal/engine"
	"dsmtx/internal/expsched"
	"dsmtx/internal/mem"
	"dsmtx/internal/mpi"
	"dsmtx/internal/platform"
	"dsmtx/internal/platform/host"
	netplat "dsmtx/internal/platform/net"
	"dsmtx/internal/queue"
	"dsmtx/internal/uva"
	"dsmtx/internal/wire"
	"dsmtx/internal/workloads"
)

// Isolated probes: each drives one layer's public API alone, for five
// slices of the probe length, and reports the median slice. They cover the
// layers whose cost cannot be timed from outside a run.

const probeSlices = 5

// medianSlice runs fn probeSlices times and returns the median of what it
// reports. fn does its own timing so set-up stays outside the number.
func medianSlice(fn func() float64) float64 {
	var xs []float64
	for i := 0; i < probeSlices; i++ {
		xs = append(xs, fn())
	}
	return median(xs)
}

// perOp repeats op in chunks until d has passed and returns ns per call.
func perOp(d time.Duration, chunk int, op func(i int)) float64 {
	start := time.Now()
	n := 0
	for time.Since(start) < d {
		for k := 0; k < chunk; k++ {
			op(n + k)
		}
		n += chunk
	}
	return float64(time.Since(start)) / float64(n)
}

// runProbes runs every probe. batchBytes is the queue batch size the run
// observed; the wire batch probe encodes a batch of that modelled size.
func runProbes(e env, d time.Duration, batchBytes int) (map[string]float64, error) {
	out := make(map[string]float64)
	probeQueue(d, out)
	probeMem(d, out)
	probeHost(d, out)
	if err := probeWire(d, batchBytes, out); err != nil {
		return nil, err
	}
	if err := probeNet(d, out); err != nil {
		return nil, err
	}
	if err := probeCache(e, d, out); err != nil {
		return nil, err
	}
	if err := probeSim(out); err != nil {
		return nil, err
	}
	return out, nil
}

// probeQueue reruns the paper's §5.3 experiment on live rings: 8-byte
// values streamed through a queue at queue.DefaultConfig() between two
// host ranks.
func probeQueue(d time.Duration, out map[string]float64) {
	const chunk = 1 << 16
	var nsPerItem []float64
	for s := 0; s < probeSlices; s++ {
		plat := host.New(2, nil)
		world := mpi.NewWorld(plat, mpi.DefaultCost())
		q := queue.New[uint64](world, "probe", 0, 1, 100, queue.DefaultConfig(), func(uint64) int { return 8 })
		var elapsed time.Duration
		var n int
		plat.Spawn("rx", func(p platform.Proc) {
			r := q.Receiver(world.Attach(1, p))
			// The producer sends a sentinel (max uint64) when its time is up.
			for r.Consume() != ^uint64(0) {
			}
		})
		plat.Spawn("tx", func(p platform.Proc) {
			tx := q.Sender(world.Attach(0, p))
			start := time.Now()
			for time.Since(start) < d {
				for k := 0; k < chunk; k++ {
					tx.Produce(uint64(n + k))
				}
				n += chunk
			}
			tx.Produce(^uint64(0))
			tx.Flush()
			elapsed = time.Since(start)
		})
		if err := plat.Run(0); err != nil {
			panic(err) // two well-formed procs cannot fail the platform
		}
		nsPerItem = append(nsPerItem, float64(elapsed)/float64(n))
	}
	out["queue.ns_per_item"] = median(nsPerItem)
	out["queue.mb_per_s"] = 8 / median(nsPerItem) * 1e3
}

// probeMem times the image's word and bulk paths over a 64 MiB region —
// several times any last-level cache this is likely to run on.
func probeMem(d time.Duration, out map[string]float64) {
	const region = 64 << 20
	const words = region / uva.WordSize
	img := mem.NewImage(nil)
	base := uva.NewArena(0).Alloc(region)
	addr := func(i int) uva.Addr { return base + uva.Addr(i%words)*uva.WordSize }
	out["mem.store_ns"] = medianSlice(func() float64 {
		return perOp(d, 1<<16, func(i int) { img.Store(addr(i), uint64(i)) })
	})
	var sink uint64
	out["mem.load_ns"] = medianSlice(func() float64 {
		return perOp(d, 1<<16, func(i int) { sink += img.Load(addr(i)) })
	})
	const pages = region / uva.PageSize
	out["mem.copy_page_ns"] = medianSlice(func() float64 {
		return perOp(d, 256, func(i int) { sink += img.CopyPage(base.Page() + uva.PageID(i%pages)).Words[0] })
	})
	const block = 64 << 10
	buf := make([]byte, block)
	out["mem.store_bytes_mb_per_s"] = medianSlice(func() float64 {
		ns := perOp(d, 16, func(i int) { img.StoreBytes(base+uva.Addr(i%(region/block))*block, buf) })
		return block / ns * 1e3
	})
	_ = sink
}

// probeHost times the host delivery layer: one producer streaming to one
// consumer, and a blocking-Recv round trip (the floor under every COA
// fault and verdict wait).
func probeHost(d time.Duration, out map[string]float64) {
	// Two bursts of 100 in flight keep the 256-slot ring busy without ever
	// spilling, so this is the lock-free path; spills are counted per job
	// (host.spills).
	const burst = 100
	out["host.send_recv_ns"] = medianSlice(func() float64 {
		plat := host.New(2, nil)
		var ns float64
		plat.Spawn("rx", func(p platform.Proc) {
			ep := plat.Endpoint(1)
			box := ep.Mailbox(0, 7)
			for n := 1; ; n++ {
				if m, ok := box.Recv(p); !ok || m.Payload != nil {
					return
				}
				if n%burst == 0 {
					ep.Send(0, 8, nil, 8)
				}
			}
		})
		plat.Spawn("tx", func(p platform.Proc) {
			ep := plat.Endpoint(0)
			sent := 0
			ns = perOp(d, burst, func(int) {
				if sent >= 2*burst && sent%burst == 0 {
					ep.Recv(p, 1, 8) // the burst before last has been consumed
				}
				ep.Send(1, 7, nil, 8)
				sent++
			})
			ep.Send(1, 7, uint64(1), 8) // stop
		})
		if err := plat.Run(0); err != nil {
			panic(err)
		}
		return ns
	})
	out["host.pingpong_us"] = medianSlice(func() float64 {
		plat := host.New(2, nil)
		var ns float64
		plat.Spawn("echo", func(p platform.Proc) {
			ep := plat.Endpoint(1)
			for {
				m := ep.Recv(p, 0, 7)
				ep.Send(0, 8, m.Payload, 8)
				if m.Payload != nil {
					return
				}
			}
		})
		plat.Spawn("ping", func(p platform.Proc) {
			ep := plat.Endpoint(0)
			ns = perOp(d, 64, func(int) {
				ep.Send(1, 7, nil, 8)
				ep.Recv(p, 1, 8)
			})
			ep.Send(1, 7, uint64(1), 8) // stop
			ep.Recv(p, 1, 8)
		})
		if err := plat.Run(0); err != nil {
			panic(err)
		}
		return ns / 1e3
	})
}

// captureBatch produces entries through a real queue and returns the
// platform message that carries the flushed batch. The batch type is
// private to the queue package; this obtains one through public calls.
func captureBatch(modelledBytes int) platform.Message {
	plat := host.New(2, nil)
	world := mpi.NewWorld(plat, mpi.DefaultCost())
	cfg := queue.DefaultConfig()
	cfg.BatchBytes = 1 << 30 // flush only when told to
	const entryBytes = 16
	q := queue.New[core.Entry](world, "probe", 0, 1, 100, cfg, func(core.Entry) int { return entryBytes })
	var msg platform.Message
	plat.Spawn("rx", func(p platform.Proc) { msg = plat.Endpoint(1).Recv(p, 0, 100) })
	plat.Spawn("tx", func(p platform.Proc) {
		tx := q.Sender(world.Attach(0, p))
		for i := 0; i < max(modelledBytes/entryBytes, 1); i++ {
			tx.Produce(core.Entry{MTX: uint64(i), Addr: uva.Addr(i * 8), Val: uint64(i) * 2654435761})
		}
		tx.Flush()
	})
	if err := plat.Run(0); err != nil {
		panic(err)
	}
	return msg
}

// probeWire times the codec on the two messages that dominate net
// traffic: a Copy-On-Access reply carrying one 4 KiB page, and a queue
// batch of the size the run observed.
func probeWire(d time.Duration, batchBytes int, out map[string]float64) error {
	page := &mem.Page{}
	for i := range page.Words {
		page.Words[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	msgs := map[string]platform.Message{
		"page": {From: 4, To: 1, Tag: 3, Bytes: uva.PageSize + 16, Class: platform.ClassPage,
			Payload: []*mem.Page{page}},
		"batch": captureBatch(batchBytes),
	}
	for name, msg := range msgs {
		var enc wire.Encoder
		if err := enc.Message(msg); err != nil {
			return fmt.Errorf("wire probe: encode %s: %w", name, err)
		}
		frame := append([]byte(nil), enc.Bytes()...)
		if dec := wire.NewDecoder(frame); dec.Message().Payload == nil || dec.Err() != nil {
			return fmt.Errorf("wire probe: %s does not decode: %v", name, dec.Err())
		}
		size := float64(len(frame))
		out["wire.encode_"+name+"_mb_per_s"] = medianSlice(func() float64 {
			ns := perOp(d, 64, func(int) {
				enc.Reset()
				_ = enc.Message(msg) // encoded once above without error
			})
			return size / ns * 1e3
		})
		out["wire.decode_"+name+"_mb_per_s"] = medianSlice(func() float64 {
			ns := perOp(d, 64, func(int) { wire.NewDecoder(frame).Message() })
			return size / ns * 1e3
		})
	}
	return nil
}

// probeNet measures the TCP mesh between two in-process meshes on
// loopback: a blocking round trip, and 4 KiB payloads streamed one way.
func probeNet(d time.Duration, out map[string]float64) error {
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("net probe: %w", err)
	}
	addrs := []string{ln.Addr().String(), ""}
	jobID := uint64(os.Getpid())<<32 | 0xbe9c
	m0 := netplat.NewMesh(netplat.MeshConfig{JobID: jobID, Self: 0, Addrs: addrs})
	m0.ServeListener(ln)
	m1 := netplat.NewMesh(netplat.MeshConfig{JobID: jobID, Self: 1, Addrs: addrs})
	defer m0.Close()
	defer m1.Close()
	p0, err := m0.Platform(0, 2, 2)
	if err != nil {
		return err
	}
	p1, err := m1.Platform(0, 2, 2)
	if err != nil {
		return err
	}
	const (
		tagPing, tagPong, tagData, tagAck = 7, 8, 9, 10
		burst                             = 256
	)
	payload := make([]byte, uva.PageSize)
	var rtt, stream []float64
	p1.Spawn("far", func(p platform.Proc) {
		ep := p1.Endpoint(1)
		for { // echo until told to move on
			m := ep.Recv(p, 0, tagPing)
			ep.Send(0, tagPong, m.Payload, 16)
			if m.Payload != nil {
				break
			}
		}
		for { // count bursts; a nil payload ends the probe
			got := 0
			for got < burst {
				if ep.Recv(p, 0, tagData).Payload == nil {
					return
				}
				got++
			}
			ep.Send(0, tagAck, nil, 8)
		}
	})
	p0.Spawn("near", func(p platform.Proc) {
		ep := p0.Endpoint(0)
		for s := 0; s < probeSlices; s++ {
			rtt = append(rtt, perOp(d, 16, func(int) {
				ep.Send(1, tagPing, nil, 16)
				ep.Recv(p, 1, tagPong)
			})/1e3)
		}
		ep.Send(1, tagPing, uint64(1), 16)
		ep.Recv(p, 1, tagPong)
		for s := 0; s < probeSlices; s++ {
			ns := perOp(d, 1, func(int) {
				for k := 0; k < burst; k++ {
					ep.Send(1, tagData, payload, len(payload))
				}
				ep.Recv(p, 1, tagAck)
			})
			stream = append(stream, float64(burst*len(payload))/ns*1e3)
		}
		ep.Send(1, tagData, nil, 8)
	})
	var wg sync.WaitGroup
	var farErr error
	wg.Add(1)
	go func() { defer wg.Done(); farErr = p1.Run(0) }()
	err = p0.Run(0)
	wg.Wait()
	if err != nil || farErr != nil {
		return fmt.Errorf("net probe: %v / %v", err, farErr)
	}
	out["net.rtt_us"] = median(rtt)
	out["net.stream_mb_per_s"] = median(stream)
	return nil
}

// probeCache times the result cache's Get and Put on a record shaped like
// the ones the job server stores.
func probeCache(e env, d time.Duration, out map[string]float64) error {
	dir, err := os.MkdirTemp(e.workdir, "cacheprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := expsched.OpenCache(dir, "bench-probe")
	if err != nil {
		return err
	}
	rec := engine.Result{Verified: true, SeqCheck: 0xfeedface, Source: "run"}
	rec.Checksum, rec.Committed, rec.Elapsed = 0xfeedface, 800, 123456789
	rec.Traffic.Messages, rec.Traffic.Bytes = 4000, 72950000
	const keys = 256
	spec := func(i int) engine.JobSpec {
		return engine.JobSpec{Kind: engine.KindParallel, Bench: "197.parser", Cores: ranks, Seed: uint64(i%keys) + 1}
	}
	var putErr error
	out["expsched.put_us"] = medianSlice(func() float64 {
		return perOp(d, keys, func(i int) {
			if err := cache.Put(spec(i), rec); err != nil {
				putErr = err
			}
		}) / 1e3
	})
	if putErr != nil {
		return fmt.Errorf("cache probe: %w", putErr)
	}
	misses := 0
	out["expsched.get_us"] = medianSlice(func() float64 {
		return perOp(d, keys, func(i int) {
			var got engine.Result
			if ok, _ := cache.Get(spec(i), &got); !ok {
				misses++
			}
		}) / 1e3
	})
	if misses > 0 {
		return fmt.Errorf("cache probe: %d lookups missed entries just written", misses)
	}
	return nil
}

// probeSim times the virtual-time kernel: wall time per simulation event of
// the vtime job class serve-mix carries.
func probeSim(out map[string]float64) error {
	b, err := workloads.ByName("crc32")
	if err != nil {
		return err
	}
	var perEvent []float64
	for s := 0; s < probeSlices; s++ {
		start := time.Now()
		res, err := workloads.RunParallel(b, workloads.Input{Scale: 1, Seed: uint64(s) + 1}, workloads.DSMTX, vtimeCores, nil)
		if err != nil {
			return err
		}
		if res.Events == 0 {
			return fmt.Errorf("sim probe: vtime run reported no events")
		}
		perEvent = append(perEvent, float64(time.Since(start))/float64(res.Events))
	}
	out["sim.ns_per_event"] = median(perEvent)
	return nil
}
