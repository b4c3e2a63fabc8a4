package main

// endToEnd lists the metrics a run with tracing off reports; perLayer
// lists those of a traced run. Both mirror BENCHMARK.json, and a test
// keeps them in step with it.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"success_ratio", "ratio"},
	{"alloc_bytes_per_op", "B"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	// queue: registry views, SBQ, the sharded front-end, FAA shards.
	{"queue.enqueue_ns_p50", "ns"},
	{"queue.enqueue_ns_p99", "ns"},
	{"queue.dequeue_ns_p50", "ns"},
	{"queue.dequeue_ns_p99", "ns"},
	{"queue.dequeue_empty_ratio", "ratio"},
	{"queue.steal_ratio", "ratio"},
	{"queue.steal_miss_ratio", "ratio"},
	{"queue.retries_per_op", "count/op"},
	// linking CAS and basket.
	{"cas.attempts_per_enqueue", "count/op"},
	{"cas.failure_ratio", "ratio"},
	{"basket.insert_ratio", "ratio"},
	{"basket.extract_ratio", "ratio"},
	// service bookkeeping, called in process.
	{"service.submit_ns_p50", "ns"},
	{"service.submit_ns_p99", "ns"},
	{"service.lease_ns_p50", "ns"},
	{"service.lease_ns_p99", "ns"},
	{"service.ack_ns_p50", "ns"},
	{"service.ack_ns_p99", "ns"},
	{"service.nack_ns_p50", "ns"},
	{"service.mutex_wait_ns_per_op", "ns/op"},
	{"service.lease_empty_ratio", "ratio"},
	{"service.redeliveries_per_op", "count/op"},
	{"service.rejects", "count"},
	// service/http: client round trips and the server handler.
	{"http.submit_rtt_us_p50", "us"},
	{"http.lease_rtt_us_p50", "us"},
	{"http.ack_rtt_us_p50", "us"},
	{"http.handler_us_p50", "us"},
	{"http.handler_share", "ratio"},
	{"http.bytes_per_op", "B/op"},
	{"http.conns_opened", "count"},
	// Go runtime.
	{"runtime.gc_cpu_ratio", "ratio"},
	{"runtime.gc_cycles_per_mop", "count/Mop"},
	{"runtime.sched_latency_us_p99", "us"},
	// the benchmark itself.
	{"bench.latency_samples", "count"},
	{"bench.trace_overhead_ratio", "ratio"},
	// where a unit's time went: each layer's span self time as a share of
	// the unit's duration, over the sampled units.
	{"self.bench_share", "ratio"},
	{"self.queue_share", "ratio"},
	{"self.service_share", "ratio"},
	{"self.http_client_share", "ratio"},
	{"self.http_handler_share", "ratio"},
}
