package harness

import (
	"fmt"

	"dsmtx/internal/cluster"
	"dsmtx/internal/mpi"
	"dsmtx/internal/queue"
	"dsmtx/internal/sim"
	"dsmtx/internal/stats"
)

// §5.3 micro-benchmark: sustained bandwidth streaming 8-byte values between
// two ranks on different nodes — through a DSMTX queue versus raw MPI
// primitives. The paper measures 480.7 MB/s for the queue against 13.1,
// 12.7 and 8.1 MB/s for MPI_Send, MPI_Bsend and MPI_Isend.

// MicroResult reports MB/s per mechanism.
type MicroResult struct {
	QueueMBps, SendMBps, BsendMBps, IsendMBps float64
}

const microWords = 50000

func microWorld(k *sim.Kernel) *mpi.World {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 2
	cfg.CoresPerNode = 1
	return mpi.NewWorld(cluster.New(k, cfg), mpi.DefaultCost())
}

// RunMicroQueue measures the four mechanisms. They are not engine jobs (no
// workload, no DSMTX system) and take a fraction of a second together, so
// they run every time, outside the engine and its cache.
func RunMicroQueue() MicroResult {
	return MicroResult{
		QueueMBps: microQueueBandwidth(),
		SendMBps:  microMPIBandwidth(func(c *mpi.Comm) { c.Send(1, 1, nil, 8) }),
		BsendMBps: microMPIBandwidth(func(c *mpi.Comm) { c.Bsend(1, 1, nil, 8) }),
		IsendMBps: microMPIBandwidth(func(c *mpi.Comm) { c.Isend(1, 1, nil, 8).Wait() }),
	}
}

func microQueueBandwidth() float64 {
	k := sim.NewKernel()
	w := microWorld(k)
	q := queue.New[uint64](w, "micro", 0, 1, 100, queue.DefaultConfig(), nil)
	k.Spawn("rx", func(p *sim.Proc) {
		r := q.Receiver(w.Attach(1, p))
		for i := 0; i < microWords; i++ {
			r.Consume()
		}
	})
	k.Spawn("tx", func(p *sim.Proc) {
		s := q.Sender(w.Attach(0, p))
		for i := uint64(0); i < microWords; i++ {
			s.Produce(i)
		}
		s.Flush()
	})
	if err := k.Run(0); err != nil {
		panic(err)
	}
	return float64(microWords*8) / k.Now().Seconds() / 1e6
}

func microMPIBandwidth(send func(*mpi.Comm)) float64 {
	k := sim.NewKernel()
	w := microWorld(k)
	k.Spawn("rx", func(p *sim.Proc) {
		c := w.Attach(1, p)
		for i := 0; i < microWords; i++ {
			c.Recv(0, 1)
		}
	})
	k.Spawn("tx", func(p *sim.Proc) {
		c := w.Attach(0, p)
		for i := 0; i < microWords; i++ {
			send(c)
		}
	})
	if err := k.Run(0); err != nil {
		panic(err)
	}
	return float64(microWords*8) / k.Now().Seconds() / 1e6
}

// RenderMicro prints the comparison with the paper's reference numbers.
func RenderMicro(r MicroResult) string {
	tb := stats.Table{Header: []string{"mechanism", "MB/s (measured)", "MB/s (paper)"}}
	tb.AddRow("DSMTX queue", fmt.Sprintf("%.1f", r.QueueMBps), "480.7")
	tb.AddRow("MPI_Send", fmt.Sprintf("%.1f", r.SendMBps), "13.1")
	tb.AddRow("MPI_Bsend", fmt.Sprintf("%.1f", r.BsendMBps), "12.7")
	tb.AddRow("MPI_Isend", fmt.Sprintf("%.1f", r.IsendMBps), "8.1")
	return "§5.3 micro-benchmark: fine-grained communication bandwidth\n" + tb.String()
}
