(* The four closed-loop workloads. Each request is split into an
   untimed client part (seeded input generation, correctness checks)
   and a timed part that stages inputs onto the device, runs the
   program and reads the outputs back. Sizes are part of each
   workload's definition. *)

open Ascend
module G = Workload.Generators

type result = {
  check : (unit, string) Stdlib.result;
  wall_ns : float;  (** host time of the timed part *)
  sim_us : float;  (** simulated device time of the request *)
  stats : Stats.t list;  (** every launch the request made, where known *)
  counters : (string * float) list;  (** per-layer counts of this request *)
  gc_minor_words : float;
  gc_major_words : float;
  gc_major_collections : int;
}

type t = {
  name : string;
  tail_pct : float;
      (** Fixed tail percentile: at or one grid step below what
          {!Summary.tail_percentile} picks at the nominal request count
          of one run, so that a run on a host twice as slow still
          leaves ten samples beyond it. The coordinator refuses an
          untraced run that does not. *)
  inputs : seed:int -> proc:int -> req:int -> float array list;
      (** The seeded inputs of request [req] of worker [proc]. *)
  setup : seed:int -> proc:int -> (int -> traced:bool -> result) * result;
      (** Build the long-lived state and run one warm-up request (its
          result is returned); the closure runs request [i]. *)
}

(* When set, every workload damages one output value before its checks
   run. Only the self-tests set it, to prove the checks are live. *)
let corrupt = ref false

let request_seed ~seed ~proc ~req = Hashtbl.hash (seed, proc, req)

let measure f =
  let g0 = Gc.quick_stat () in
  let t0 = Span.now_ns () in
  let v = Span.with_ "request" f in
  let t1 = Span.now_ns () in
  let g1 = Gc.quick_stat () in
  ( v,
    fun ~check ~sim_us ~stats ~counters ->
      {
        check;
        wall_ns = Int64.to_float (Int64.sub t1 t0);
        sim_us;
        stats;
        counters;
        gc_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        gc_major_words = g1.Gc.major_words -. g0.Gc.major_words;
        gc_major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      } )

let clock_ms f =
  let t0 = Span.now_ns () in
  let v = f () in
  (v, Int64.to_float (Int64.sub (Span.now_ns ()) t0) /. 1e6)

(* Host ms of an attribution probe: work run outside the request span,
   only in traced runs, to split a layer's time further. *)
let probe_ms name f = clock_ms (fun () -> Span.with_ name f)

let ( let* ) = Result.bind
let ensure cond msg = if cond then Ok () else Error msg
let sim_us_of stats = List.fold_left (fun a (s : Stats.t) -> a +. (s.Stats.seconds *. 1e6)) 0.0 stats

let same_sim what ~expected got =
  ensure
    (List.length expected = List.length got
    && List.for_all2 Stats.equal_simulated expected got)
    (what ^ ": simulated stats differ")

let check_first first what stats =
  match !first with
  | None ->
      first := Some stats;
      Ok ()
  | Some expected -> same_sim what ~expected stats

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b

let stage dev dtype name data =
  Span.with_ "ascend.host_buffer.stage" (fun () -> Device.of_array dev dtype ~name data)

let readback t = Span.with_ "ascend.host_buffer.stage" (fun () -> Global_tensor.to_array t)

let damage t i = Global_tensor.set t i (Global_tensor.get t i +. 1.0)

(* Metric-name groups of engine tracks and critical-path resources. *)
let engine_group name =
  let ends s = Filename.check_suffix name s in
  if ends ".mte_in" then "mte2"
  else if ends ".mte_out" then "mte3"
  else if name = "cube" || name = "scalar" then name
  else if String.length name > 3 && String.sub name 0 3 = "vec" then "vec"
  else "other"

let blame_group = function
  | "HBM/L2 bandwidth" -> "hbm"
  | "launch latency" -> "launch_latency"
  | "sync_all" -> "sync_all"
  | "phase overhead" -> "phase_overhead"
  | "launch overhead" -> "launch_overhead"
  | r -> engine_group r

(* ---- llm_decode --------------------------------------------------- *)

let vocab = 32768
let top_p = 0.9

(* softmax(logits) on the device, as examples/llm_sampling builds it:
   shifted exp pass, MCScan for the normaliser, scale pass. *)
let device_softmax dev ~max_logit logits =
  let n = Global_tensor.length logits in
  let exps = Device.alloc dev Dtype.F16 n ~name:"exps" in
  let st_exp =
    Span.with_ "ops.map_kernel" (fun () ->
        Ops.Map_kernel.run ~name:"softmax_exp" dev ~inputs:[ logits ] ~output:exps
          ~f:(fun ctx ~vec ~ins ~out ~scratch:_ ~len ->
            match ins with
            | [ src ] ->
                Vec.adds ctx ~vec ~src ~dst:out ~scalar:(-.max_logit) ~len ();
                Vec.exp ctx ~vec ~src:out ~dst:out ~len ()
            | _ -> assert false))
  in
  let cdf, st_scan = Span.with_ "scan.mcscan_f16" (fun () -> Scan.Mcscan.run dev exps) in
  let total = Global_tensor.get cdf (n - 1) in
  let probs = Device.alloc dev Dtype.F16 n ~name:"probs" in
  let st_scale =
    Span.with_ "ops.map_kernel" (fun () ->
        Ops.Map_kernel.run ~name:"softmax_scale" dev ~inputs:[ exps ] ~output:probs
          ~f:(fun ctx ~vec ~ins ~out ~scratch:_ ~len ->
            match ins with
            | [ src ] -> Vec.muls ctx ~vec ~src ~dst:out ~scalar:(1.0 /. total) ~len ()
            | _ -> assert false))
  in
  (probs, [ st_exp; st_scan; st_scale ])

let llm_inputs ~seed ~proc ~req =
  let s = request_seed ~seed ~proc ~req in
  [ G.uniform_f16 ~seed:s ~lo:0.0 ~hi:8.0 vocab; [| Random.State.float (Random.State.make [| s; 1 |]) 1.0 |] ]

let llm_decode_setup ~seed ~proc =
  let dev = Device.create ~domains:1 () in
  let first = ref None in
  let request req ~traced:_ =
    let logits, theta =
      match llm_inputs ~seed ~proc ~req with [ l; [| t |] ] -> (l, t) | _ -> assert false
    in
    let max_logit = Array.fold_left Float.max neg_infinity logits in
    let a0 = Device.allocated_bytes dev in
    let (probs, st_soft, tp), finish =
      measure (fun () ->
          let lt = stage dev Dtype.F16 "logits" logits in
          let probs, st = device_softmax dev ~max_logit lt in
          let tp = Span.with_ "ops.topp" (fun () -> Ops.Topp.sample dev ~probs ~p:top_p ~theta) in
          (probs, st, tp))
    in
    let alloc_mb = float_of_int (Device.allocated_bytes dev - a0) /. 1e6 in
    let tp = if !corrupt then { tp with Ops.Topp.kept = 0 } else tp in
    let stats = st_soft @ [ tp.Ops.Topp.stats ] in
    let check =
      let* () =
        match tp.Ops.Topp.token with
        | Some tok when tok >= 0 && tok < vocab ->
            ensure (Global_tensor.get probs tok > 0.0) "sampled token has zero probability"
        | Some tok -> Error (Printf.sprintf "token %d out of range" tok)
        | None -> Error "no token sampled"
      in
      let oracle = Scan.Reference.top_p_threshold_count (Global_tensor.to_array probs) ~p:top_p in
      let kept = tp.Ops.Topp.kept in
      let* () =
        ensure
          (float_of_int kept >= 0.5 *. float_of_int oracle
          && float_of_int kept <= (2.0 *. float_of_int oracle) +. 4.0)
          (Printf.sprintf "nucleus %d outside the band of oracle %d" kept oracle)
      in
      (* Only the softmax launches are held to the first request:
         the nucleus, and with it top-p's sampling launches, depends
         on the logits. *)
      check_first first "softmax" st_soft
    in
    finish ~check ~sim_us:(sim_us_of stats) ~stats
      ~counters:[ ("ascend.host_buffer.alloc_mb", alloc_mb) ]
  in
  let warm = request 0 ~traced:false in
  ((fun i -> request (i + 1)), warm)

(* ---- mcscan_1m ----------------------------------------------------- *)

let scan_n = 1 lsl 20

(* Sparse 0/1 input keeps every fp16 prefix sum an exact integer below
   2048, so the blocked kernel and the sequential reference agree bit
   for bit; I8 sums are exact in the I32 output at any density. *)
let f16_input ~seed n = G.ones_and_zeros ~seed ~density:(1000.0 /. float_of_int n) n
let i8_input ~seed n = G.small_ints ~seed:(seed + 1) ~max_value:9 n

let mcscan_inputs ~seed ~proc ~req =
  let s = request_seed ~seed ~proc ~req in
  [ f16_input ~seed:s scan_n; i8_input ~seed:s scan_n ]

let cost_only_run ~domains n dtypes =
  let twin = Device.create ~mode:Device.Cost_only ~domains () in
  List.map (fun dt -> snd (Scan.Mcscan.run twin (Device.alloc twin dt n ~name:"twin_x"))) dtypes

let check_scan what ~round input out =
  Result.map_error (fun e -> what ^ ": " ^ e)
    (Scan.Scan_api.check_against_reference ~round ~input ~output:out ())

(* One F16 and one I8 scan of fresh inputs; returns the host ms of the
   two kernel calls alone, for the traced attribution probes. *)
let mcscan_pair dev xf xi =
  let gf = stage dev Dtype.F16 "xf" xf in
  let (yf, stf), f_ms = clock_ms (fun () -> Span.with_ "scan.mcscan_f16" (fun () -> Scan.Mcscan.run dev gf)) in
  let gi = stage dev Dtype.I8 "xi" xi in
  let (yi, sti), i_ms = clock_ms (fun () -> Span.with_ "scan.mcscan_i8" (fun () -> Scan.Mcscan.run dev gi)) in
  let bf = readback yf and bi = readback yi in
  ((yf, yi), (bf, bi), [ stf; sti ], f_ms +. i_ms)

(* Requests run at domains=1: on a 2-CPU host shared with other
   tenants, domains=2 medians moved by up to 2x between runs of the
   same code. The domains=2 path is still checked for bit-identical
   output, after the timed part of the first measured request and of
   every traced one, and timed against the same input when traced. *)
let mcscan_1m_setup ~seed ~proc =
  let dev = Device.create ~domains:1 () in
  let dev2 = Device.create ~domains:2 () in
  let twin = cost_only_run ~domains:1 scan_n [ Dtype.F16; Dtype.I8 ] in
  let first = ref None in
  let d2_run xf xi =
    let gf = Device.of_array dev2 Dtype.F16 ~name:"xf" xf in
    let gi = Device.of_array dev2 Dtype.I8 ~name:"xi" xi in
    let (yf, yi), ms =
      clock_ms (fun () -> (fst (Scan.Mcscan.run dev2 gf), fst (Scan.Mcscan.run dev2 gi)))
    in
    ((Global_tensor.to_array yf, Global_tensor.to_array yi), ms)
  in
  let pair req =
    match mcscan_inputs ~seed ~proc ~req with [ xf; xi ] -> (xf, xi) | _ -> assert false
  in
  let request req ~traced =
    let xf, xi = pair req in
    let ((yf, yi), (bf, bi), stats, kernel_ms), finish =
      measure (fun () -> mcscan_pair dev xf xi)
    in
    if !corrupt then damage yi (scan_n / 2);
    let d2_expected, counters =
      if req = 1 then (Some (fst (d2_run xf xi)), [])
      else if not traced then (None, [])
      else begin
        let _, charge_ms =
          probe_ms "probe.cost_only_twin" (fun () ->
              cost_only_run ~domains:1 scan_n [ Dtype.F16; Dtype.I8 ])
        in
        let d2, d2_ms = Span.with_ "probe.domains_2" (fun () -> d2_run xf xi) in
        ( Some d2,
          [
            ("ascend.block.charge_ms", charge_ms);
            ("ascend.host_buffer.compute_ms", kernel_ms -. charge_ms);
            ("ascend.domain.speedup", kernel_ms /. d2_ms);
          ] )
      end
    in
    let check =
      let* () = check_scan "f16" ~round:Fp16.round xf yf in
      let* () = check_scan "i8" ~round:Fun.id xi yi in
      let* () = same_sim "cost-only twin" ~expected:twin stats in
      let* () = check_first first "first request" stats in
      match d2_expected with
      | Some (f, i) ->
          ensure
            (bits_equal f bf && bits_equal i bi)
            "domains=2 output differs from the domains=1 run"
      | None -> Ok ()
    in
    finish ~check ~sim_us:(sim_us_of stats) ~stats ~counters
  in
  let warm = request 0 ~traced:false in
  ((fun i -> request (i + 1)), warm)

(* ---- trace_profile ------------------------------------------------- *)

let trace_n = 1 lsl 18

let compute_cycles (st : Stats.t) clock_hz =
  List.fold_left (fun a (p : Stats.phase) -> a +. (p.Stats.compute_seconds *. clock_hz)) 0.0 st.Stats.phases

let identity_scenario = Obs.Whatif.Speedup { label = "baseline"; queues = []; factor = 1.0 }

let trace_inputs ~seed ~proc ~req = [ f16_input ~seed:(request_seed ~seed ~proc ~req) trace_n ]

let trace_profile_setup ~seed ~proc =
  let dev = Device.create ~domains:1 () in
  let clock_hz = (Device.cost dev).Cost_model.clock_hz in
  let twin = cost_only_run ~domains:1 trace_n [ Dtype.F16 ] in
  let first = ref None in
  let request req ~traced =
    let x = List.hd (trace_inputs ~seed ~proc ~req) in
    let (g, y, st, tr, doc, profile, ranked, scan_ms), finish =
      measure (fun () ->
          let g = stage dev Dtype.F16 "x" x in
          let tr = Device.arm_trace dev in
          let (y, st), scan_ms =
            clock_ms (fun () -> Span.with_ "scan.mcscan_f16" (fun () -> Scan.Mcscan.run dev g))
          in
          Device.set_trace dev None;
          ignore (readback y);
          let bytes = Span.with_ "obs.chrome_trace.export" (fun () -> Obs.Chrome_trace.to_string tr) in
          let doc = Span.with_ "obs.jsonw.parse" (fun () -> Obs.Jsonw.parse bytes) in
          let profile =
            Span.with_ "obs.critical_path.build" (fun () -> Result.bind doc Obs.Critical_path.of_json)
          in
          let ranked =
            Span.with_ "obs.whatif.rank" (fun () -> Result.map Obs.Whatif.rank profile)
          in
          (g, y, st, (tr, String.length bytes), doc, profile, ranked, scan_ms))
    in
    if !corrupt then damage y (trace_n / 2);
    let tr, trace_bytes = tr in
    let stats = [ st ] in
    let record_ms =
      if not traced then []
      else
        let _, untraced_ms = probe_ms "probe.untraced_scan" (fun () -> Scan.Mcscan.run dev g) in
        [ ("ascend.trace.record_ms", scan_ms -. untraced_ms) ]
    in
    let blame =
      match profile with
      | Ok p ->
          List.map
            (fun (r, c) -> ("sim.cp.blame." ^ blame_group r ^ "_cycles", c))
            p.Obs.Critical_path.blame
      | Error _ -> []
    in
    let check =
      let* doc = Result.map_error (( ^ ) "trace JSON: ") doc in
      let* _ = Result.map_error (( ^ ) "trace validate: ") (Obs.Chrome_trace.validate doc) in
      let* p = Result.map_error (( ^ ) "critical path: ") profile in
      let* ranked = Result.map_error (( ^ ) "what-if: ") ranked in
      let* () = ensure (ranked <> []) "what-if ranked no scenario" in
      let rebuilt = Obs.Whatif.predict_compute_cycles p identity_scenario in
      let* () =
        ensure
          (Float.abs (rebuilt -. compute_cycles st clock_hz) <= 0.5)
          (Printf.sprintf "reconstructed compute %.1f <> engine model %.1f" rebuilt
             (compute_cycles st clock_hz))
      in
      let* () = check_scan "f16" ~round:Fp16.round x y in
      let* () = same_sim "cost-only twin" ~expected:twin stats in
      check_first first "first request" stats
    in
    finish ~check ~sim_us:(sim_us_of stats) ~stats
      ~counters:
        ([
           ("ascend.trace.spans", float_of_int (Trace.span_count tr));
           ("ascend.trace.edges", float_of_int (Trace.edge_count tr));
           ("obs.chrome_trace.mb", float_of_int trace_bytes /. 1e6);
         ]
        @ record_ms @ blame)
  in
  let warm = request 0 ~traced:false in
  ((fun i -> request (i + 1)), warm)

(* ---- pod_ckpt ------------------------------------------------------ *)

let pod_devices = 4
let pod_batch = 32
let pod_len = 4096
let scenario_path = "scenarios/pod-partition.chaos"
let work_dir = ".perfbench"

let ensure_work_dir () =
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755

let pod_inputs ~seed ~proc ~req =
  [ G.ones_and_zeros ~seed:(request_seed ~seed ~proc ~req) ~density:0.02 (pod_batch * pod_len) ]

let pod_clock pod =
  List.fold_left (fun a i -> Float.max a (Pod.clock pod i)) 0.0
    (List.init (Pod.num_devices pod) Fun.id)

let pod_ckpt_setup ~seed ~proc =
  let sc =
    match Runtime.Chaos.load scenario_path with
    | Ok sc -> sc
    | Error e -> failwith (scenario_path ^ ": " ^ e)
  in
  ensure_work_dir ();
  let store_path = Filename.concat work_dir (Printf.sprintf "pod-%d.ckpt" (Unix.getpid ())) in
  let scratch_path = store_path ^ ".scratch" in
  let leg ?store ~skip input =
    let primary = Device.create ~domains:1 ~fault:(Runtime.Chaos.fault_config sc) () in
    let pod = Span.with_ "pod.create" (fun () -> Pod.create_with ~primary ~devices:pod_devices ()) in
    let chaos =
      Runtime.Chaos.arm ~skip_crashes:skip
        ~on_crash:(fun m -> raise (Runtime.Chaos.Host_crash m))
        sc
    in
    let ctl = Runtime.Degrade_ctl.create () in
    let r =
      Span.with_ "runtime.pod_runner" (fun () ->
          match
            Runtime.Pod_runner.batched_scan ?store ~ctl ~chaos pod ~batch:pod_batch ~len:pod_len ~input
          with
          | r -> Some r
          | exception Runtime.Chaos.Host_crash _ -> None)
    in
    (pod, r)
  in
  let bytes_of (r : Runtime.Pod_runner.report) =
    Array.init (pod_batch * pod_len) (Global_tensor.get r.Runtime.Pod_runner.py)
  in
  let first = ref None in
  let request req ~traced =
    let input = List.hd (pod_inputs ~seed ~proc ~req) in
    let (crash_pod, crashed, reopened, res_pod, res, out), finish =
      measure (fun () ->
          let store =
            Span.with_ "runtime.checkpoint_store.create" (fun () ->
                Runtime.Checkpoint_store.create ~path:store_path ~rows:pod_batch ~len:pod_len ())
          in
          let crash_pod, crashed = leg ~store ~skip:false input in
          let reopened =
            Span.with_ "runtime.checkpoint_store.reopen" (fun () ->
                Runtime.Checkpoint_store.reopen ~path:store_path)
          in
          let res_pod, res =
            match reopened with
            | Ok (store, _) -> leg ~store ~skip:true input
            | Error _ -> (crash_pod, None)
          in
          let out = Option.map (fun r -> Span.with_ "ascend.host_buffer.stage" (fun () -> bytes_of r)) res in
          (crash_pod, crashed, reopened, res_pod, res, out))
    in
    let out = Option.map (fun o -> if !corrupt then o.(pod_len / 2) <- o.(pod_len / 2) +. 1.0; o) out in
    let stats = match res with Some r -> [ r.Runtime.Pod_runner.pstats ] | None -> [] in
    let commit_ms =
      match reopened with
      | Ok (store, _) when traced ->
          let groups = Runtime.Checkpoint_store.groups store in
          let _, ms =
            probe_ms "probe.scratch_commit" (fun () ->
                let st = Runtime.Checkpoint_store.create ~path:scratch_path ~rows:pod_batch ~len:pod_len () in
                List.iter (fun (lo, hi, values) -> Runtime.Checkpoint_store.commit st ~lo ~hi ~values) groups)
          in
          [ ("runtime.checkpoint_store.commit_ms", ms /. float_of_int (max 1 (List.length groups))) ]
      | _ -> []
    in
    let counters =
      match res with
      | None -> []
      | Some r ->
          let open Runtime.Pod_runner in
          let commits =
            match reopened with Ok (st, _) -> Runtime.Checkpoint_store.commits st | Error _ -> 0
          in
          let pods = [ crash_pod; res_pod ] in
          let sum f = float_of_int (List.fold_left (fun a p -> a + f p) 0 pods) in
          [
            ("runtime.group_attempts", float_of_int r.pgroup_attempts);
            ("runtime.commit_ratio", float_of_int commits /. float_of_int (max 1 r.pgroup_attempts));
            ("runtime.replayed_rows", float_of_int r.preplayed_rows);
            ("runtime.restored_rows", float_of_int r.prestored_rows);
            ("pod.link.sends", sum Pod.link_sends);
            ("pod.link.retries", sum Pod.link_retries);
            ("pod.link.reroutes", sum Pod.reroutes);
            ( "pod.link.sim_us",
              1e6 *. List.fold_left (fun a p -> a +. Pod.link_seconds p) 0.0 pods );
          ]
          @ commit_ms
    in
    let check =
      let* () = ensure (crashed = None) "the crash leg did not crash" in
      let* _ = Result.map_error (( ^ ) "store reopen: ") reopened in
      let* r = Option.to_result ~none:"resume did not complete" res in
      let* out = Option.to_result ~none:"resume did not complete" out in
      let open Runtime.Pod_runner in
      let* () = ensure r.pok "resumed run did not commit every row" in
      let* () = ensure (r.pshed_rows = 0) (Printf.sprintf "%d rows shed" r.pshed_rows) in
      let* () = ensure (r.prestored_rows > 0) "nothing was restored from the store" in
      let expected =
        Scan.Reference.batched_inclusive ~round:Fp16.round ~batch:pod_batch ~len:pod_len input
      in
      let* () = ensure (bits_equal expected out) "resumed bytes differ from an uninterrupted run" in
      check_first first "first request" stats
    in
    finish ~check ~sim_us:(1e6 *. (pod_clock crash_pod +. pod_clock res_pod)) ~stats ~counters
  in
  let warm = request 0 ~traced:false in
  (* The warm-up's resumed bytes must also equal a real uninterrupted
     pod run of the same storyline. *)
  let warm =
    let input = List.hd (pod_inputs ~seed ~proc ~req:0) in
    let _, r = leg ~skip:true input in
    match r with
    | Some r when bits_equal (bytes_of r)
                    (Scan.Reference.batched_inclusive ~round:Fp16.round ~batch:pod_batch ~len:pod_len input) -> warm
    | _ -> { warm with check = Error "uninterrupted pod run differs from the host reference" }
  in
  ((fun i -> request (i + 1)), warm)

(* Remove the checkpoint stores (and their .tmp snapshots) that
   pod_ckpt leaves in the work directory. *)
let cleanup () =
  if Sys.file_exists work_dir then
    Array.iter
      (fun f ->
        if String.starts_with ~prefix:"pod-" f then
          try Sys.remove (Filename.concat work_dir f) with Sys_error _ -> ())
      (Sys.readdir work_dir)

let all =
  [
    { name = "llm_decode"; tail_pct = 75.0; inputs = llm_inputs; setup = llm_decode_setup };
    { name = "mcscan_1m"; tail_pct = 75.0; inputs = mcscan_inputs; setup = mcscan_1m_setup };
    { name = "trace_profile"; tail_pct = 75.0; inputs = trace_inputs; setup = trace_profile_setup };
    { name = "pod_ckpt"; tail_pct = 90.0; inputs = pod_inputs; setup = pod_ckpt_setup };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
