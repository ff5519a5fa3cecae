(* Metric tables, per-request values, and the JSON that workers and
   the coordinator exchange. *)

module J = Obs.Jsonw

type metric = { m_name : string; m_unit : string; m_better : string }

let e2e =
  [
    { m_name = "setup_s"; m_unit = "s"; m_better = "lower" };
    { m_name = "req_ms_p50"; m_unit = "ms"; m_better = "lower" };
    { m_name = "req_ms_tail"; m_unit = "ms"; m_better = "lower" };
    { m_name = "req_per_s"; m_unit = "1/s"; m_better = "higher" };
    { m_name = "peak_rss_mb"; m_unit = "MB"; m_better = "lower" };
    { m_name = "sim_us"; m_unit = "sim_us"; m_better = "lower" };
  ]

(* Per-layer metrics. [moves] is the end-to-end metric and workload the
   layer should move: the layer-to-end-to-end map that later changes
   cite (BENCHMARK.json has no field for it). *)
type source =
  | Self of string  (** mean self ms per traced request of a span *)
  | Mean  (** mean per traced request of the same-named request value *)
  | Run  (** computed over the whole run in [layer_values] *)

type layer = { l : metric; source : source; moves : string }

let layer ?(better = "lower") name unit source moves =
  { l = { m_name = name; m_unit = unit; m_better = better }; source; moves }

let per_layer =
  let ms name span moves = layer name "ms" (Self span) moves in
  let mean ?better name unit moves = layer ?better name unit Mean moves in
  let run name unit moves = layer name unit Run moves in
  let llm = "req_ms_p50@llm_decode" and scan = "req_ms_p50@mcscan_1m" in
  let tr = "req_ms_p50@trace_profile" and pod = "req_ms_p50@pod_ckpt" in
  let podsim = "req_ms_p50,sim_us@pod_ckpt" and sim = "sim_us@every workload" in
  [
    ms "ops.topp.ms" "ops.topp" llm;
    ms "ops.map_kernel.ms" "ops.map_kernel" llm;
    ms "scan.mcscan_f16.ms" "scan.mcscan_f16" (llm ^ "," ^ scan);
    ms "scan.mcscan_i8.ms" "scan.mcscan_i8" scan;
    ms "ascend.host_buffer.stage_ms" "ascend.host_buffer.stage" scan;
    ms "obs.chrome_trace.export_ms" "obs.chrome_trace.export" tr;
    ms "obs.jsonw.parse_ms" "obs.jsonw.parse" tr;
    ms "obs.critical_path.build_ms" "obs.critical_path.build" tr;
    ms "obs.whatif.rank_ms" "obs.whatif.rank" tr;
    ms "runtime.pod_runner.ms" "runtime.pod_runner" pod;
    ms "runtime.checkpoint_store.reopen_ms" "runtime.checkpoint_store.reopen" pod;
    ms "runtime.checkpoint_store.create_ms" "runtime.checkpoint_store.create" pod;
    ms "pod.create_ms" "pod.create" pod;
    ms "host.unspanned_ms" "request" "req_ms_p50@every workload";
    mean "ascend.launch.count" "count" (llm ^ "; flat on mcscan_1m");
    mean "ascend.launch.host_ms" "ms" (llm ^ "; flat on mcscan_1m");
    run "ascend.launch.us_per_launch" "us" (llm ^ "; flat on mcscan_1m");
    mean "host.outside_launch_ms" "ms" (llm ^ "," ^ pod);
    mean "gc.major_collections" "count" "req_ms_p50,req_ms_tail@llm_decode";
    mean "gc.minor_mwords" "Mwords" "req_ms_p50,req_ms_tail@llm_decode";
    mean "gc.major_mwords" "Mwords" "req_ms_p50,req_ms_tail@llm_decode";
    mean "ascend.host_buffer.alloc_mb" "MB" "peak_rss_mb@llm_decode";
    mean "ascend.block.charge_ms" "ms" scan;
    mean "ascend.host_buffer.compute_ms" "ms" scan;
    mean ~better:"higher" "ascend.domain.speedup" "x" "none: mcscan_1m requests run at domains=1";
    mean "ascend.trace.record_ms" "ms" tr;
    mean "ascend.trace.spans" "count" tr;
    mean "ascend.trace.edges" "count" tr;
    mean "obs.chrome_trace.mb" "MB" tr;
    mean "runtime.checkpoint_store.commit_ms" "ms" pod;
    mean "runtime.group_attempts" "count" podsim;
    mean ~better:"higher" "runtime.commit_ratio" "ratio" podsim;
    mean "runtime.replayed_rows" "count" podsim;
    mean "runtime.restored_rows" "count" podsim;
    mean "pod.link.sends" "count" podsim;
    mean "pod.link.retries" "count" podsim;
    mean "pod.link.reroutes" "count" podsim;
    mean "pod.link.sim_us" "sim_us" podsim;
    mean "sim.gm_mb" "MB" sim;
    mean "sim.engine.cube_busy_cycles" "cycles" sim;
    mean "sim.engine.vec_busy_cycles" "cycles" sim;
    mean "sim.engine.mte2_busy_cycles" "cycles" sim;
    mean "sim.engine.mte3_busy_cycles" "cycles" sim;
    mean "sim.engine.scalar_busy_cycles" "cycles" sim;
  ]
  @ List.map
      (fun r -> mean ("sim.cp.blame." ^ r ^ "_cycles") "cycles" sim)
      [ "cube"; "vec"; "mte2"; "mte3"; "scalar"; "hbm"; "launch_latency"; "sync_all"; "phase_overhead"; "launch_overhead"; "other" ]
  @ [
      run "trace.req_ms_mean" "ms" "none: equals the sum of the .ms self times above";
      run "trace.overhead_ms" "ms" "none: the recorder's own cost";
      run "trace.overhead_pct" "%" "none: the recorder's own cost";
    ]

(* Per-request values of every [Mean] metric. *)
let request_values (r : Workloads.result) =
  let open Ascend.Stats in
  let sum f = List.fold_left (fun a s -> a +. f s) 0.0 r.Workloads.stats in
  let launches = sum (fun s -> float_of_int s.launches) in
  let launch_ms = sum (fun s -> s.host_seconds *. 1e3) in
  let engines =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun (e, c) ->
            match Workloads.engine_group e with
            | "other" -> None
            | g -> Some ("sim.engine." ^ g ^ "_busy_cycles", c))
          s.engine_busy)
      r.Workloads.stats
  in
  [
    ("ascend.launch.count", launches);
    ("ascend.launch.host_ms", launch_ms);
    ("host.outside_launch_ms", (r.Workloads.wall_ns /. 1e6) -. launch_ms);
    ("gc.major_collections", float_of_int r.Workloads.gc_major_collections);
    ("gc.minor_mwords", r.Workloads.gc_minor_words /. 1e6);
    ("gc.major_mwords", r.Workloads.gc_major_words /. 1e6);
    ("sim.gm_mb", sum (fun s -> float_of_int (gm_bytes s)) /. 1e6);
  ]
  @ engines @ r.Workloads.counters

let add tbl k v = Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0)

(* Total self ms of every span name inside request trees (attribution
   probes are roots of their own and stay out). *)
let self_ms_by_name spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (s : Span.t) -> Hashtbl.replace by_id s.Span.id s) spans;
  let rec root (s : Span.t) =
    if s.Span.parent < 0 then s else root (Hashtbl.find by_id s.Span.parent)
  in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun ((s : Span.t), self_ns) ->
      if (root s).Span.name = "request" then add tbl s.Span.name (self_ns /. 1e6))
    (Span.self_times spans);
  tbl

let floats xs = J.List (List.map (fun x -> J.Float x) xs)

type worker_out = {
  setup_s : float;  (** at the reference host speed *)
  loop_s : float;  (** client loop time at the reference host speed, probes excluded *)
  attempted : int;
  failures : string list;
  untraced : float list;  (** wall ms of the untraced requests *)
  untraced_ref : float list;  (** the same requests at the reference host speed *)
  traced : float list;
  sims : float list;  (** sim_us of the first {!Worker.sim_requests} requests *)
  rss : float;
  probe_ms : float;  (** median host-speed probe reading *)
  sums : (string * float) list;
}

let encode_worker o =
  J.Obj
    [
      ("setup_s", J.Float o.setup_s);
      ("loop_s", J.Float o.loop_s);
      ("attempted", J.Int o.attempted);
      ("failures", J.List (List.map (fun s -> J.String s) o.failures));
      ("untraced_ms", floats o.untraced);
      ("untraced_ref_ms", floats o.untraced_ref);
      ("traced_ms", floats o.traced);
      ("sim_us", floats o.sims);
      ("peak_rss_mb", J.Float o.rss);
      ("probe_ms", J.Float o.probe_ms);
      ("sums", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) o.sums));
    ]

let decode_worker doc =
  let num k = Option.bind (J.member k doc) J.number_opt in
  let nums k =
    Option.bind (J.member k doc) J.to_list_opt |> Option.map (List.filter_map J.number_opt)
  in
  match
    ( num "setup_s", num "loop_s", Option.bind (J.member "attempted" doc) J.int_opt,
      Option.bind (J.member "failures" doc) J.to_list_opt, nums "untraced_ms", nums "untraced_ref_ms",
      nums "traced_ms", nums "sim_us", num "peak_rss_mb", num "probe_ms", J.member "sums" doc )
  with
  | Some setup_s, Some loop_s, Some attempted, Some failures, Some untraced, Some untraced_ref,
    Some traced, Some sims, Some rss, Some probe_ms, Some (J.Obj sums) ->
      Ok
        {
          setup_s;
          loop_s;
          attempted;
          failures = List.filter_map J.string_opt failures;
          untraced;
          untraced_ref;
          traced;
          sims;
          rss;
          probe_ms;
          sums = List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) (J.number_opt v)) sums;
        }
  | _ -> Error "malformed worker result"

let error_rate outs =
  let attempted = List.fold_left (fun a o -> a + o.attempted) 0 outs in
  let failed = List.fold_left (fun a o -> a + List.length o.failures) 0 outs in
  float_of_int failed /. float_of_int (max 1 attempted)

let sum_of key outs =
  List.fold_left (fun a o -> a +. Option.value (List.assoc_opt key o.sums) ~default:0.0) 0.0 outs

(* Host times are reported at the reference host speed (see
   Summary.probe_ms); the raw wall-clock median goes to the run's
   metadata. *)
let e2e_values (w : Workloads.t) outs =
  let arr f = Array.of_list (List.concat_map f outs) in
  let samples = arr (fun o -> o.untraced_ref) in
  let loop_s = List.fold_left (fun a o -> a +. o.loop_s) 0.0 outs in
  List.map2
    (fun m v -> (m, v))
    e2e
    [
      Summary.median (arr (fun o -> [ o.setup_s ]));
      Summary.median samples;
      Summary.percentile w.Workloads.tail_pct samples;
      float_of_int (Array.length samples) /. loop_s;
      Summary.median (arr (fun o -> [ o.rss ]));
      Summary.median (arr (fun o -> o.sims));
    ]

let layer_values outs =
  let traced = Array.of_list (List.concat_map (fun o -> o.traced) outs) in
  let n = float_of_int (max 1 (Array.length traced)) in
  let mean key = sum_of key outs /. n in
  (* Each traced request against the untraced one just before it, so
     host speed drifting during the run cancels out of the overhead. *)
  let rec pair ts us = match (ts, us) with t :: ts, u :: us -> (t, u) :: pair ts us | _ -> [] in
  let pairs = List.concat_map (fun o -> pair o.traced o.untraced) outs in
  let over f = if pairs = [] then 0.0 else Summary.median (Array.of_list (List.map f pairs)) in
  List.map
    (fun { l; source; _ } ->
      let v =
        match (source, l.m_name) with
        | Self span, _ -> mean ("self:" ^ span)
        | Mean, k -> mean k
        | Run, "ascend.launch.us_per_launch" ->
            let c = sum_of "ascend.launch.count" outs in
            if c > 0.0 then 1e3 *. sum_of "ascend.launch.host_ms" outs /. c else 0.0
        | Run, "trace.req_ms_mean" -> if traced = [||] then 0.0 else Summary.mean traced
        | Run, "trace.overhead_ms" -> over (fun (t, u) -> t -. u)
        | Run, "trace.overhead_pct" -> over (fun (t, u) -> 100.0 *. (t -. u) /. u)
        | Run, k -> invalid_arg ("Report.layer_values: " ^ k)
      in
      (l, v))
    per_layer

let metric_json (m, v) = (m.m_name, J.Obj [ ("value", J.Float v); ("unit", J.String m.m_unit) ])


(* The result line: exactly the keys the benchmark contract names. *)
let result_json ~attempted ~failed metrics =
  J.Obj
    [
      ("correct", J.Bool (failed = 0));
      ("attempted", J.Int attempted);
      ("failed", J.Int failed);
      ("metrics", J.Obj (List.map metric_json metrics));
    ]
