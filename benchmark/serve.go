package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"ksp"
	"ksp/internal/server"
	"ksp/internal/shard"
)

// kspserver's flag defaults, spelled out: the benchmark serves exactly
// what `kspserver` serves when started with no tuning flags.
const (
	srvMaxK          = 100
	srvTimeout       = 10 * time.Second
	srvQueueWait     = time.Second
	srvSlowThreshold = 500 * time.Millisecond
	srvSlowRing      = 64
	shardTiles       = 4
)

// served is one live serving stack: dataset, optional shard coordinator,
// the server handler, and an HTTP listener on loopback.
type served struct {
	ds    *ksp.Dataset
	coord *shard.Coordinator
	tiles []*shard.Local
	srv   *server.Server
	hs    *http.Server
	done  chan error
	base  string
	// client keeps one idle connection per closed-loop client.
	client *http.Client
}

// openDataset runs the workload's open path up to a queryable dataset.
func openDataset(in *inputs) (*ksp.Dataset, error) {
	cfg := ksp.DefaultConfig()
	switch in.w.open {
	case openGraph, openShard4:
		return ksp.NewDatasetFromGraph(in.g, cfg)
	case openSnapshot:
		return ksp.LoadSnapshot(in.snapPath, cfg)
	case openNT:
		return ksp.OpenFile(in.ntPath, cfg)
	case openMmap:
		cfg.Mmap = true
		return ksp.LoadSnapshotDisk(in.snapPath, cfg)
	}
	return nil, fmt.Errorf("unknown open path %d", in.w.open)
}

// open runs the whole open path: dataset, tiles and coordinator when
// sharded, the server configured as kspserver configures it, a loopback
// listener, and one answered query. Its duration is setup_s.
func open(in *inputs) (s *served, err error) {
	s = &served{}
	defer func() {
		if err != nil {
			//ksplint:ignore droppederr -- error-path cleanup; the open error already wins
			s.close()
			s = nil
		}
	}()
	if s.ds, err = openDataset(in); err != nil {
		return s, err
	}
	if in.w.open == openShard4 {
		tiles, err := s.ds.PartitionSpatial(shardTiles)
		if err != nil {
			return s, err
		}
		members := make([]shard.Shard, len(tiles))
		for i, tile := range tiles {
			l := shard.NewLocal(fmt.Sprintf("tile%d", i), tile)
			s.tiles = append(s.tiles, l)
			members[i] = l
		}
		s.coord, err = shard.New(members, shard.Config{
			AttemptTimeout: 2 * time.Second,
			MaxAttempts:    3,
			HedgeAfter:     250 * time.Millisecond,
		})
		if err != nil {
			return s, err
		}
	}
	s.srv = server.New(s.ds)
	s.srv.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))
	s.srv.MaxK = srvMaxK
	s.srv.Timeout = srvTimeout
	s.srv.DefaultParallel = 0
	s.srv.QueueTimeout = srvQueueWait
	s.srv.EnableSlowLog(srvSlowRing, srvSlowThreshold)
	if s.coord != nil {
		s.srv.AttachShards(s.coord)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return s, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv}
	s.done = make(chan error, 1)
	go func() { s.done <- s.hs.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	status, _, err := s.get(in.pool[0].path, nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("first query answered %d", status)
	}
	return s, err
}

// get issues one GET and reads the whole body into buf (reused when it
// has room), so the connection goes back to the idle pool.
func (s *served) get(path string, buf []byte) (int, []byte, error) {
	return get(s.client, s.base+path, buf)
}

func get(client *http.Client, url string, buf []byte) (int, []byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, buf[:0], err
	}
	buf, err = readInto(resp.Body, buf[:0])
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, buf, err
}

func readInto(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// close stops the listener, waits for the serve goroutine, and releases
// the coordinator and the dataset, in kspserver's shutdown order. It
// copes with a stack that open left half built.
func (s *served) close() error {
	var err error
	if s.hs != nil {
		s.client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err = s.hs.Shutdown(ctx)
		if serr := <-s.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
			err = serr
		}
	}
	if s.coord != nil {
		s.coord.Close()
	}
	if s.ds != nil {
		if cerr := s.ds.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
