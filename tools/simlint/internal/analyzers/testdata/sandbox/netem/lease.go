package netem

import "sync"

// BufClass is the lease code, the one data-path file a sync.Pool is
// declared in and leased from.
type BufClass struct{ pool sync.Pool }

func (b *BufClass) Get() any { return b.pool.Get() }

func (b *BufClass) Put(x any) { b.pool.Put(x) }
