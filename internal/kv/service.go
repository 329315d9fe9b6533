package kv

import (
	"fmt"
	"time"

	"shadowblock/internal/core"
	"shadowblock/internal/crypt"
	"shadowblock/internal/metrics"
	"shadowblock/internal/oram"
	"shadowblock/internal/store"
)

// BackendFunc builds the storage backend of a tree of buckets buckets,
// slots slots each, every slot sealing payload bytes.
type BackendFunc func(buckets, slots, payload int) (store.Backend, error)

// Backend returns the BackendFunc of a named kind: "mem" (process memory),
// "file" (one flat file at path) or "remote" (process memory behind lat of
// wall-clock delay per bucket op, standing in for a storage server).
func Backend(kind, path string, lat time.Duration) BackendFunc {
	return func(buckets, slots, payload int) (store.Backend, error) {
		switch kind {
		case "mem":
			return store.NewMem(buckets, slots), nil
		case "file":
			if path == "" {
				return nil, fmt.Errorf("kv: file backend needs a path")
			}
			return store.NewFile(path, buckets, slots, payload)
		case "remote":
			return store.NewLatency(store.NewMem(buckets, slots), lat), nil
		}
		return nil, fmt.Errorf("kv: unknown backend %q (mem, file or remote)", kind)
	}
}

// Service serves Get, Put and Delete over a functional shadow-block ORAM
// (dynamic-3) on its own storage backend, presenting each op to the
// engine's oram.Queue on its one requestor lane at the caller's cycle. The
// backend sees only the path trace, never which key was touched. Not every
// op is an access, though: a Get or Delete of an absent key makes none
// (key existence is directory metadata) and neither does a stash hit, so
// the storage server learns how many ops hit an existing key off chip.
// One dummy access per absent-key op and a constant-rate storage schedule
// close that (ROADMAP items 18(b) and 6).
type Service struct {
	eng  *oram.Controller
	q    *oram.Queue
	mc   *metrics.Collector
	dir  *Directory
	back store.Backend
}

// Open validates an L-level tree's configuration, then builds its backend
// (2^(L+1)-1 buckets) and the ORAM over it, closing the backend if that fails.
func Open(level int, backend BackendFunc) (*Service, error) {
	cfg := oram.Default()
	cfg.L = level
	cfg.Functional = true
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var err error
	if cfg.Store, err = backend(1<<(cfg.L+1)-1, cfg.Z, crypt.NonceSize+cfg.BlockBytes); err != nil {
		return nil, err
	}
	eng, _, err := core.New(cfg, core.Dynamic(3))
	if err != nil {
		cfg.Store.Close()
		return nil, err
	}
	mc := metrics.New(metrics.Options{Ledger: true})
	eng.SetMetrics(mc)
	q := oram.NewQueue(eng, 1)
	q.SetMetrics(mc)
	return &Service{eng: eng, q: q, mc: mc, dir: NewDirectory(eng.NumDataBlocks()), back: cfg.Store}, nil
}

// Get reads key at cycle now: its value, whether it exists, and the
// completion cycle (now for an absent key).
func (s *Service) Get(now int64, key string) ([]byte, bool, int64, error) {
	addr, ok := s.dir.Lookup(key)
	if !ok {
		return nil, false, now, nil
	}
	data, out := s.q.Read(now, 0, addr)
	value, err := DecodeValue(data)
	if err != nil {
		return nil, false, out.Done, fmt.Errorf("kv: block %d: %w", addr, err)
	}
	return value, true, out.Done, nil
}

// Put writes value under key at cycle now and returns the completion
// cycle. A value longer than MaxValue is rejected before the key is
// assigned.
func (s *Service) Put(now int64, key string, value []byte) (int64, error) {
	blk, err := EncodeValue(value, s.eng.BlockBytes())
	if err != nil {
		return now, err
	}
	addr, err := s.dir.Assign(key)
	if err != nil {
		return now, err
	}
	return s.write(now, addr, blk)
}

// Delete removes key at cycle now: whether it existed, and the completion
// cycle (now for an absent key).
func (s *Service) Delete(now int64, key string) (bool, int64, error) {
	addr, ok := s.dir.Remove(key)
	if !ok {
		return false, now, nil
	}
	// Scrub the block (to the framed empty value) before its address is
	// recycled, so a later key given the address never reads the old value.
	done, err := s.write(now, addr, make([]byte, s.eng.BlockBytes()))
	return err == nil, done, err
}

func (s *Service) write(now int64, addr uint32, blk []byte) (int64, error) {
	out, err := s.q.Write(now, 0, addr, blk)
	if err != nil {
		return now, err
	}
	return out.Done, nil
}

// MaxValue returns the longest value Put accepts.
func (s *Service) MaxValue() int { return MaxValue(s.eng.BlockBytes()) }

// Metrics returns the collector the engine and the queue record into.
func (s *Service) Metrics() *metrics.Collector { return s.mc }

// Stats returns the number of assigned keys, the engine's counters (the
// silent-loss guards among them) and the queue's.
func (s *Service) Stats() (keys int, eng oram.Stats, q oram.QueueStats) {
	return s.dir.Len(), s.eng.Stats(), s.q.Stats()
}

// Close releases the storage backend: a file backend writes back what it
// buffers and closes.
func (s *Service) Close() error { return s.back.Close() }
