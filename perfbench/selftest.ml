(* Self-tests of the benchmark: tail-percentile selection, host-speed
   scaling, seeded determinism, the JSON round trip between workers and
   coordinator, live correctness checks, and agreement between
   BENCHMARK.json and the metric tables. Run them with

     dune build @perfbench/selftest

   The workloads read scenarios/ relative to the checkout root, so when
   run from perfbench/ the test first moves up one directory. *)

module J = Obs.Jsonw

let failures = ref 0

let check name ok =
  if ok then Printf.printf "  ok: %s\n%!" name
  else begin
    incr failures;
    Printf.printf "  FAILED: %s\n%!" name
  end

let bits_equal_lists a b =
  List.length a = List.length b && List.for_all2 Workloads.bits_equal a b

let test_tail () =
  List.iter
    (fun (n, expected) ->
      check
        (Printf.sprintf "tail percentile of %d samples" n)
        (Summary.tail_percentile n = expected))
    [
      (19, None); (20, Some 50.0); (60, Some 75.0); (99, Some 75.0); (100, Some 90.0);
      (200, Some 95.0); (1000, Some 99.0); (10000, Some 99.9);
    ];
  check "p75 is covered by 40 samples" (Summary.tail_covered ~p:75.0 40);
  check "p75 is not covered by 39 samples" (not (Summary.tail_covered ~p:75.0 39));
  check "p90 is covered by 200 samples" (Summary.tail_covered ~p:90.0 200);
  check "nothing is covered by 19 samples" (not (Summary.tail_covered ~p:50.0 19));
  let xs = Array.init 11 float_of_int in
  check "p90 of 0..10 is 9" (Summary.percentile 90.0 xs = 9.0);
  check "median interpolates" (Summary.median [| 4.0; 1.0; 2.0; 3.0 |] = 2.5)

let test_speed_scale () =
  let r = Summary.reference_probe_ms in
  check "speed scale is 1 at the reference probe reading" (Summary.speed_scale ~before:r ~after:r = 1.0);
  check "a host twice as slow halves the scale"
    (Summary.speed_scale ~before:(1.5 *. r) ~after:(2.5 *. r) = 0.5)

(* Jsonw prints integral floats without a fraction, which parse back
   as [Int]; compare numbers by value. *)
let rec numeric = function
  | J.Int i -> J.Float (float_of_int i)
  | J.List l -> J.List (List.map numeric l)
  | J.Obj m -> J.Obj (List.map (fun (k, v) -> (k, numeric v)) m)
  | v -> v

let roundtrip o =
  match J.parse (J.to_string (Report.encode_worker o)) with
  | Ok doc -> Report.decode_worker doc
  | Error e -> Error e

let test_workload (w : Workloads.t) =
  let name s = w.Workloads.name ^ ": " ^ s in
  let inputs seed req = w.Workloads.inputs ~seed ~proc:0 ~req in
  check (name "same seed, same inputs") (bits_equal_lists (inputs 7 3) (inputs 7 3));
  check (name "another seed, other inputs") (not (bits_equal_lists (inputs 7 3) (inputs 8 3)));
  check (name "another request, other inputs") (not (bits_equal_lists (inputs 7 3) (inputs 7 4)));
  (* A zero budget runs the warm-up and the sim_us requests only. *)
  let run budget_s = Worker.run w ~seed:7 ~proc:0 ~budget_s ~trace:false in
  let t0 = Unix.gettimeofday () in
  let clean = run 0.0 in
  let clean_s = Unix.gettimeofday () -. t0 in
  let attempted = 1 + Worker.sim_requests in
  check (name "warm-up and requests pass their checks") (clean.Report.failures = []);
  check (name "warm-up and sim_us requests attempted") (clean.Report.attempted = attempted);
  check (name "error rate 0") (Report.error_rate [ clean ] = 0.0);
  check (name "every untraced request also read at reference speed")
    (List.length clean.Report.untraced_ref = List.length clean.Report.untraced);
  Workloads.corrupt := true;
  let bad = Fun.protect ~finally:(fun () -> Workloads.corrupt := false) (fun () -> run 0.0) in
  check (name "a corrupted output fails every request") (List.length bad.Report.failures = attempted);
  check (name "a corrupted output raises the error rate") (Report.error_rate [ bad ] = 1.0);
  let sims o = Array.of_list o.Report.sims in
  check (name "same seed, same sim_us")
    (clean.Report.sims <> [] && Workloads.bits_equal (sims clean) (sims bad));
  (* Twice the time a zero-budget run takes leaves room for more requests. *)
  let longer = run (2.0 *. clean_s) in
  check (name "a longer run runs more requests") (longer.Report.attempted > attempted);
  check (name "a longer run, same sim_us") (Workloads.bits_equal (sims clean) (sims longer));
  check (name "worker result round-trips through Jsonw") (roundtrip clean = Ok clean);
  let metrics = Report.e2e_values w [ clean ] in
  let line = Report.result_json ~attempted:2 ~failed:0 metrics in
  check (name "result line round-trips through Jsonw") (Result.map numeric (J.parse (J.to_string line)) = Ok (numeric line))

(* A request that raises is counted as a failed request, and the
   worker goes on to the next one. *)
let test_raising_request () =
  let ok =
    {
      Workloads.check = Ok ();
      wall_ns = 1e6;
      sim_us = 1.0;
      stats = [];
      counters = [];
      gc_minor_words = 0.0;
      gc_major_words = 0.0;
      gc_major_collections = 0;
    }
  in
  let request i ~traced:_ = if i = 1 then failwith "boom" else ok in
  let w =
    {
      Workloads.name = "raising";
      tail_pct = 50.0;
      inputs = (fun ~seed:_ ~proc:_ ~req:_ -> []);
      setup = (fun ~seed:_ ~proc:_ -> (request, ok));
    }
  in
  let o = Worker.run w ~seed:7 ~proc:0 ~budget_s:0.0 ~trace:false in
  check "a raising request is attempted and failed"
    (o.Report.attempted = 1 + Worker.sim_requests && List.length o.Report.failures = 1);
  check "the worker goes on after a raising request"
    (List.length o.Report.untraced = Worker.sim_requests - 1)

(* A traced worker with a zero budget traces one request and still
   reports every per-layer metric as a finite number. *)
let test_short_traced_run () =
  let w = Option.get (Workloads.find "pod_ckpt") in
  let o = Worker.run w ~seed:7 ~proc:0 ~budget_s:0.0 ~trace:true in
  let metrics = Report.layer_values [ o ] in
  check "short traced run: every per-layer metric present"
    (List.length metrics = List.length Report.per_layer);
  check "short traced run: every value finite"
    (List.for_all (fun (_, v) -> Float.is_finite v) metrics)

(* BENCHMARK.json and the tables in Report must name the same metrics
   with the same units and directions, and the same workloads. *)
let test_benchmark_json () =
  let doc =
    let ic = open_in_bin "BENCHMARK.json" in
    let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
    match J.parse s with Ok d -> d | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let entries key =
    Option.value ~default:[] (Option.bind (J.member key doc) J.to_list_opt)
  in
  let str k e = Option.value ~default:"" (Option.bind (J.member k e) J.string_opt) in
  let listed key = List.map (fun e -> (str "name" e, str "unit" e, str "better" e)) (entries key) in
  let table ms = List.map (fun m -> (m.Report.m_name, m.Report.m_unit, m.Report.m_better)) ms in
  check "end_to_end matches the coordinator's table" (listed "end_to_end" = table Report.e2e);
  check "per_layer matches the coordinator's table"
    (listed "per_layer" = table (List.map (fun l -> l.Report.l) Report.per_layer));
  check "workloads match"
    (List.map (str "name") (entries "workloads") = List.map (fun w -> w.Workloads.name) Workloads.all);
  check "every per_layer metric names what it should move"
    (List.for_all (fun l -> l.Report.moves <> "") Report.per_layer)

let () =
  if not (Sys.file_exists "BENCHMARK.json") then Sys.chdir "..";
  Printf.printf "perfbench self-tests\n%!";
  test_tail ();
  test_speed_scale ();
  List.iter test_workload Workloads.all;
  test_raising_request ();
  test_short_traced_run ();
  test_benchmark_json ();
  if !failures > 0 then begin
    Printf.printf "perfbench self-tests: %d FAILED\n%!" !failures;
    exit 1
  end;
  Printf.printf "perfbench self-tests: all passed\n%!"
