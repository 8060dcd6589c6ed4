package service

import (
	"context"
	"sync"
	"testing"
)

// selectSpy is a live context that reports when a caller first reads
// its Done channel, which do's follower does just before it blocks on
// the flight.
type selectSpy struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (s *selectSpy) Done() <-chan struct{} {
	s.once.Do(func() { close(s.waiting) })
	return s.Context.Done()
}

// TestFlightFollowerOutlivesCanceledLeader: a leader that fails only
// because its own context was cancelled must not fail a follower whose
// context is live; the follower compiles the key itself.
func TestFlightFollowerOutlivesCanceledLeader(t *testing.T) {
	var g flightGroup
	leaderCtx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err, _ := g.do(leaderCtx, "k", func() (*entry, error) {
			close(started)
			<-leaderCtx.Done()
			return nil, leaderCtx.Err()
		})
		leaderErr <- err
	}()
	<-started
	spy := &selectSpy{Context: context.Background(), waiting: make(chan struct{})}
	go func() {
		<-spy.waiting
		cancel()
	}()
	want := &entry{}
	en, err, leader := g.do(spy, "k", func() (*entry, error) { return want, nil })
	if err != nil || en != want || !leader {
		t.Fatalf("follower got (%v, %v, leader=%v), want its own compile", en, err, leader)
	}
	if err := <-leaderErr; err != context.Canceled {
		t.Fatalf("leader error %v, want context.Canceled", err)
	}
}

// TestFlightFollowerSharesResult: an ordinary follower gets the
// leader's entry without running fn.
func TestFlightFollowerSharesResult(t *testing.T) {
	var g flightGroup
	started, release := make(chan struct{}), make(chan struct{})
	want := &entry{}
	go g.do(context.Background(), "k", func() (*entry, error) {
		close(started)
		<-release
		return want, nil
	})
	<-started
	spy := &selectSpy{Context: context.Background(), waiting: make(chan struct{})}
	go func() {
		<-spy.waiting
		close(release)
	}()
	en, err, leader := g.do(spy, "k", func() (*entry, error) {
		t.Error("follower ran fn")
		return nil, nil
	})
	if err != nil || en != want || leader {
		t.Fatalf("follower got (%v, %v, leader=%v), want the leader's entry", en, err, leader)
	}
}
