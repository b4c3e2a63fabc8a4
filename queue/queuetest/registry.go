package queuetest

import (
	"repro/queue"
	"repro/queue/registry"
)

// FromRegistry adapts the named registry entry into a Factory, so the whole
// conformance suite can be table-driven over registry.Names(). cfg is the
// build template: the suite overwrites Producers per check and leaves the
// rest (Shards, Recorder, TxWindow) as given — the way to pin an explicit
// shard count so multi-shard paths get covered even when GOMAXPROCS is 1.
func FromRegistry(name string, cfg registry.Config) Factory {
	f := FromRegistryConfig(name, cfg)
	return func(producers int) (func(int) queue.Queue[uint64], func(int) queue.Queue[uint64]) {
		p, c := f(producers)
		return func(i int) queue.Queue[uint64] { return p(i) },
			func(i int) queue.Queue[uint64] { return c(i) }
	}
}

// FromRegistryConfig is FromRegistry for the batch surface: it adapts the
// named entry, built from cfg, into a BatchFactory. A build error (an
// unknown name or an invalid cfg) panics, failing the calling test.
func FromRegistryConfig(name string, cfg registry.Config) BatchFactory {
	return func(producers int) (func(int) queue.BatchQueue[uint64], func(int) queue.BatchQueue[uint64]) {
		c := cfg
		c.Producers = producers
		inst, err := registry.Build(name, c)
		if err != nil {
			panic("queuetest: " + err.Error())
		}
		return inst.ProducerView, inst.ConsumerView
	}
}
