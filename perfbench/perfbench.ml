(* End-to-end benchmark of the simulator.

   perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   The coordinator splits the run into [procs] sequential worker
   processes (this same executable with --worker), so host effects that
   are fixed for the life of a process (heap layout, page placement)
   are sampled across processes instead of being baked into one. Each
   worker is one closed-loop client: it sets up, runs a warm-up
   request, then issues the next request only when the previous one
   has completed, until its share of the run time is spent.

   With --trace 0 the last stdout line carries the end-to-end metrics;
   with --trace 1 it carries the per-layer metrics of the traced
   requests and the tracing overhead (see Worker), and every worker
   writes its spans to .perfbench/. The line before the last one holds
   the run's metadata: seed, commit, OCaml version, host CPUs, the
   host-speed probe timed before and after the run and its median
   reading during the run, and the raw wall-clock request median that
   req_ms_p50 reads at the reference host speed. *)

module J = Obs.Jsonw
open Report

let procs = 6

(* ---- coordinator ---------------------------------------------------- *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 1) fmt

let run_worker (w : Workloads.t) ~seed ~proc ~budget_s ~trace =
  let args =
    [|
      Sys.executable_name; "--worker"; "--workload"; w.Workloads.name; "--seed"; string_of_int seed;
      "--proc"; string_of_int proc; "--budget-s"; Printf.sprintf "%.6f" budget_s;
      "--trace"; (if trace then "1" else "0");
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  match (Unix.close_process_in ic, !lines) with
  | Unix.WEXITED 0, last :: _ -> (
      match Result.bind (J.parse last) decode_worker with
      | Ok r -> r
      | Error e -> fail "worker %d: %s" proc e)
  | Unix.WEXITED c, _ -> fail "worker %d exited with code %d" proc c
  | (Unix.WSIGNALED s | Unix.WSTOPPED s), _ -> fail "worker %d killed by signal %d" proc s

let commit () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    try
      let ic = Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] in
      let c = try input_line ic with End_of_file -> "unknown" in
      ignore (Unix.close_process_in ic);
      c
    with Unix.Unix_error _ -> "unknown"

let coordinator (w : Workloads.t) ~seed ~seconds ~trace =
  let cal_before = Summary.calibration_ns () in
  let budget_s = float_of_int seconds /. float_of_int procs in
  let outs = List.init procs (fun proc -> run_worker w ~seed ~proc ~budget_s ~trace) in
  let cal_after = Summary.calibration_ns () in
  let attempted = List.fold_left (fun a o -> a + o.attempted) 0 outs in
  let failures = List.concat_map (fun o -> o.failures) outs in
  let samples = List.fold_left (fun a o -> a + List.length o.untraced) 0 outs in
  let rule_pct = Summary.tail_percentile samples in
  (* req_ms_tail keeps its workload's fixed percentile so that runs
     stay comparable; a run too short to leave ten samples beyond it
     is refused. *)
  if (not trace) && not (Summary.tail_covered ~p:w.Workloads.tail_pct samples) then
    fail "%d untraced samples leave fewer than 10 beyond p%g; run longer" samples w.Workloads.tail_pct;
  let meta =
    J.Obj
      [
        ("workload", J.String w.Workloads.name);
        ("seed", J.Int seed);
        ("seconds", J.Int seconds);
        ("trace", J.Bool trace);
        ("commit", J.String (commit ()));
        ("ocaml", J.String Sys.ocaml_version);
        ("host_cpus", J.Int (Domain.recommended_domain_count ()));
        ("calibration_ns_before", J.Float cal_before);
        ("calibration_ns_after", J.Float cal_after);
        ("procs", J.Int procs);
        ("probe_ms", J.Float (Summary.median (Array.of_list (List.map (fun o -> o.probe_ms) outs))));
        ("reference_probe_ms", J.Float Summary.reference_probe_ms);
        ("wall_req_ms_p50", J.Float (Summary.median (Array.of_list (List.concat_map (fun o -> o.untraced) outs))));
        ("untraced_samples", J.Int samples);
        ("tail_percentile", J.Float w.Workloads.tail_pct);
        ("tail_percentile_rule", match rule_pct with Some p -> J.Float p | None -> J.Null);
        ( "samples_beyond_tail",
          J.Int (int_of_float (float_of_int samples *. (1.0 -. (w.Workloads.tail_pct /. 100.0)))) );
        ("error_rate", J.Float (error_rate outs));
        ("failures", J.List (List.map (fun s -> J.String s) (List.filteri (fun i _ -> i < 5) failures)));
      ]
  in
  print_endline (J.to_string (J.Obj [ ("meta", meta) ]));
  let metrics = if trace then layer_values outs else e2e_values w outs in
  print_endline (J.to_string (result_json ~attempted ~failed:(List.length failures) metrics))

(* ---- command line ---------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \  workloads: llm_decode mcscan_1m trace_profile pod_ckpt";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | "--worker" :: rest -> parse (("worker", "1") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let int k = Option.bind (get k) int_of_string_opt in
  match (Option.bind (get "workload") Workloads.find, int "seed", get "trace") with
  | Some w, Some seed, Some (("0" | "1") as t) -> (
      let trace = t = "1" in
      match get "worker" with
      | Some _ -> (
          match (int "proc", Option.bind (get "budget-s") float_of_string_opt) with
          | Some proc, Some budget_s ->
              print_endline (J.to_string (encode_worker (Worker.run w ~seed ~proc ~budget_s ~trace)))
          | _ -> usage ())
      | None -> (
          match int "seconds" with
          | Some seconds when seconds >= 1 -> coordinator w ~seed ~seconds ~trace
          | _ -> usage ()))
  | _ -> usage ()
