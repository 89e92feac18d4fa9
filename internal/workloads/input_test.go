package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"dsmtx/internal/core"
	"dsmtx/internal/mem"
	"dsmtx/internal/uva"
)

// inputRegion is the image range a generating Setup fills with its input.
func inputRegion(prog Program) (uva.Addr, int) {
	switch p := prog.(type) {
	case *gzProg:
		return p.input, int(p.blocks) * gzBlockBytes
	case *crcProg:
		return p.input, int(p.files) * crcFileBytes
	case *bzProg:
		return p.input, int(p.blocks) * bzBlockBytes
	}
	panic(fmt.Sprintf("workloads: %T generates no input", prog))
}

// setupDigest runs b's Setup at in and returns the SHA-256 of the input
// region it built.
func setupDigest(b *Benchmark, in Input) (string, error) {
	prog := b.NewDSMTX(in, 0)
	_, img, err := core.RunSequential(coreDefaultFor(prog), prog, 0, nil)
	if err != nil {
		return "", err
	}
	return regionDigest(prog, img), nil
}

// hostSetupDigest runs b at in on host and returns the SHA-256 of the input
// region the commit image holds afterwards: no iteration stores to the
// input, so it is the region Setup built.
func hostSetupDigest(b *Benchmark, in Input) (string, error) {
	c := NewChain(b, in)
	var res Result
	err := c.Step(&res, DSMTX, 8, func(cfg *core.Config) {
		cfg.Backend = core.BackendHost
	})
	if err != nil {
		return "", err
	}
	return regionDigest(c.last, c.img), nil
}

// regionDigest is the SHA-256 of prog's input region in img.
func regionDigest(prog Program, img *mem.Image) string {
	addr, n := inputRegion(prog)
	sum := sha256.Sum256(img.LoadBytes(addr, n))
	return hex.EncodeToString(sum[:])
}

// TestGeneratedInputsPinned pins the input region each generating Setup
// builds, at two seeds and at rates 0 and 0.05 (crc32 and 256.bzip2 write
// their corrupt-file markers at 0.05; gzip has none), in the sequential
// reference's image and in the commit image of a host run. Recorded from the Setups that generated every file into a reused buffer,
// before inputs were cached. Each seed's rate-0.05 Setups run first on an
// emptied cache, so the rate-0 Setups after them map the frames the marked
// ones mapped: their pin proves no marker reached a cached frame.
func TestGeneratedInputsPinned(t *testing.T) {
	pins := []struct {
		b             *Benchmark
		seed          uint64
		marked, clean string // rate 0.05, rate 0
	}{
		{Gzip(), 42, "cc3097e22398ccffad7656a1d6c72a2f806dd7893131bb355f4d4933389c67fa", "cc3097e22398ccffad7656a1d6c72a2f806dd7893131bb355f4d4933389c67fa"},
		{Gzip(), 7, "c7ea1c20b749f9ec6a566d41603dbc99766336f2f85a8486a739423a21c4e9ba", "c7ea1c20b749f9ec6a566d41603dbc99766336f2f85a8486a739423a21c4e9ba"},
		{CRC32(), 42, "1d56d2288b0f4156e2dc7cdb492f508b93caf3751dd4b27f58e7b8d9fef85d07", "c4d52762a31a505046e3256ee3d6688c0ead96f4625d3eb51c1cd98a90347770"},
		{CRC32(), 7, "03b6ea98d438eccb8260781d02a3cd852263412bc2fea7431ffc29a50597bc7d", "a61194154f5ce51933fe1ad634770155fe9b558b8c6cd3d0c51632537ecb2284"},
		{Bzip2(), 42, "34f779b653fff6cd2b09e9f9601196fdef788f4ffe9280600a5a0f06fd9020cc", "b30825722248d7e0b14aed44c95d2af30ecb7c9648e5e4599faf9f136211c783"},
		{Bzip2(), 7, "edae3b556e4a311d25a9fdf4bea0b2909d3a8cc3b6a743bd44f79c90eb8b6314", "0f19ac96e9bd4b8455841593bda6862bfa0a480ef49d138d24a79f2f3bdec29d"},
	}
	// The -race row skips the host runs: Setup maps on one goroutine on
	// every backend, and the host runs cost seconds under the race detector.
	host := !testing.Short()
	for _, p := range pins {
		DropInput(p.b.Name, Input{Scale: 1, Seed: p.seed})
		for _, row := range []struct {
			rate float64
			want string
		}{{0.05, p.marked}, {0, p.clean}} {
			in := Input{Scale: 1, Seed: p.seed, MisspecRate: row.rate}
			for _, live := range []bool{false, true} {
				if live && !host {
					continue
				}
				digest, where := setupDigest, "sequential"
				if live {
					digest, where = hostSetupDigest, "host"
				}
				got, err := digest(p.b, in)
				if err != nil {
					t.Fatal(err)
				}
				if got != row.want {
					t.Errorf("%s seed %d rate %g %s: input %s, pinned %s", p.b.Name, p.seed, row.rate, where, got, row.want)
				}
			}
		}
	}
}

// TestInputDropRace runs Setups for overlapping seeds on several goroutines
// while others drop those seeds' inputs: a Setup mapping dropped frames,
// and one regenerating them, must both build the image a lone Setup built.
// Each seed runs at rate 0.05 and at rate 0, so Setups that store corrupt-
// file markers (crc32, 256.bzip2) map the same frames as Setups that do
// not, concurrently: a marker reaching a shared frame fails a clean digest.
func TestInputDropRace(t *testing.T) {
	type job struct {
		b    *Benchmark
		in   Input
		want string
	}
	var jobs []job
	for _, b := range []*Benchmark{Gzip(), CRC32(), Bzip2()} {
		for _, seed := range []uint64{3, 4} {
			for _, rate := range []float64{0.05, 0} {
				in := Input{Scale: 1, Seed: seed, MisspecRate: rate}
				want, err := setupDigest(b, in)
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, job{b, in, want})
			}
		}
	}
	const setters, rounds = 3, 1
	var setups, droppers sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, setters*rounds*len(jobs))
	for g := range setters {
		setups.Add(1)
		go func() {
			defer setups.Done()
			for r := range rounds * len(jobs) {
				j := jobs[(g+r)%len(jobs)]
				got, err := setupDigest(j.b, j.in)
				if err == nil && got != j.want {
					err = fmt.Errorf("%s seed %d rate %g: input %s, want %s", j.b.Name, j.in.Seed, j.in.MisspecRate, got, j.want)
				}
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	for range 2 {
		droppers.Add(1)
		go func() {
			defer droppers.Done()
			for {
				for _, j := range jobs {
					select {
					case <-done:
						return
					default:
					}
					DropInput(j.b.Name, j.in)
				}
			}
		}()
	}
	setups.Wait()
	close(done)
	droppers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
