//! The faulted run every replay test binary reads.

use rubberband::prelude::*;
use rubberband::rb_cloud::catalog::P3_8XLARGE;
use rubberband::rb_exec::NoopHook;
use rubberband::rb_obs::StreamingRecorder;
use std::sync::Arc;

/// A spot run with capacity, straggler, degraded-node and checkpoint
/// faults under a retry policy, streamed to JSONL.
pub fn faulted_trace() -> String {
    let task = rubberband::rb_train::task::resnet101_cifar10();
    let physics = ModelProfile::exact_for_task(&task, 1024, 4);
    let spec = ExperimentSpec::from_stages(&[(8, 1), (4, 2), (2, 4)]).unwrap();
    let mut cloud = CloudProfile::new(CloudPricing::on_demand(P3_8XLARGE))
        .with_provision_delay(SimDuration::from_secs(15))
        .with_init_latency(SimDuration::from_secs(15))
        .with_spot_interruptions(2.0);
    cloud.pricing = cloud.pricing.with_spot();
    let configs = SearchSpace::new()
        .add("lr", Dim::LogUniform { lo: 1e-3, hi: 1.0 })
        .build()
        .unwrap()
        .sample_n(8, &mut Prng::seed_from_u64(7));
    let sink = Arc::new(StreamingRecorder::in_memory());
    let report = Executor::new(
        spec,
        AllocationPlan::new(vec![8, 4, 4]),
        task,
        physics,
        cloud,
    )
    .unwrap()
    .with_options(ExecOptions {
        seed: 7,
        faults: FaultPlan {
            capacity_failure_prob: 0.3,
            straggler_prob: 0.2,
            straggler_factor: 20.0,
            degraded_prob: 0.2,
            degraded_factor: 1.5,
            checkpoint_corruption_prob: 0.2,
            ..FaultPlan::none()
        },
        retry: Some(RetryPolicy {
            max_retries: 12,
            base_backoff_secs: 5.0,
            max_backoff_secs: 60.0,
            request_timeout_secs: 60.0,
        }),
        checkpoint_retention: 3,
        ..ExecOptions::default()
    })
    .run_observed(&configs, &mut NoopHook, RecorderHandle::new(sink.clone()))
    .unwrap();
    assert!(report.faults_injected > 0, "the cell injects faults");
    Arc::try_unwrap(sink).unwrap().into_jsonl()
}
