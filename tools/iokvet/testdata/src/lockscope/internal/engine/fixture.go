// Package engine is a lockscope fixture for the in-repo blocking set:
// engine.Log appends fsync, so calling them under the engine mutex is
// the documented durability point and must be deliberate.
package engine

import "sync"

// Log is the engine's mutation log (the real one is the store's WAL).
type Log interface {
	LogInsert(ids []int, xs []string) error
}

// Engine holds the corpus lock and the mutation log.
type Engine struct {
	mu  sync.Mutex
	log Log
}

// AddUnmarked appends to the WAL under the write lock without owning
// up to it: flagged.
func (e *Engine) AddUnmarked(xs []string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.log.LogInsert(nil, xs) // want `LogInsert \(WAL append \+ fsync\) while e\.mu held`
}

// AddDurable is the same call carrying the durability-point directive:
// no want.
func (e *Engine) AddDurable(xs []string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	//iokvet:allow lockscope(durability point: the add is acknowledged only after the WAL fsync)
	return e.log.LogInsert(nil, xs)
}

// AddOutsideLock appends before taking the lock: clean.
func (e *Engine) AddOutsideLock(xs []string) error {
	if err := e.log.LogInsert(nil, xs); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return nil
}
