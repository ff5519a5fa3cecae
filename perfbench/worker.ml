(* One worker process: one closed-loop client. It sets up, runs the
   warm-up request, then issues request i+1 only after request i has
   completed, until its time budget is spent. It always runs the first
   [sim_requests] requests, and sim_us is taken over those alone, so
   it does not depend on how many requests the host manages.

   A request that raises is a failed request; the loop goes on.

   In traced runs requests cycle untraced, traced, settling: the traced
   request is followed by its attribution probes, whose garbage the
   next request pays for, so that next one is checked but not timed.
   Traced and untraced requests then both follow an ordinary request;
   the traced one minus the untraced one before it is the recorder's
   own overhead.

   The host-speed probe (see Summary) runs before set-up, after it and
   after every request, outside every timed part. Set-up and each
   request are also reported at the reference host speed, scaled by
   the probes on either side of them. *)

open Report

let vm_hwm_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec go () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb -> kb /. 1024.0)
      | _ -> go ()
      | exception End_of_file -> nan
    in
    Fun.protect ~finally:(fun () -> close_in ic) go
  with Sys_error _ -> nan

let write_spans (w : Workloads.t) ~seed ~proc spans =
  Workloads.ensure_work_dir ();
  let path =
    Filename.concat Workloads.work_dir
      (Printf.sprintf "spans-%s-seed%d-proc%d.json" w.Workloads.name seed proc)
  in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> J.to_channel oc (Span.to_json spans))

let sim_requests = 3

let run (w : Workloads.t) ~seed ~proc ~budget_s ~trace =
  let probes = ref [ Summary.probe_ms () ] in
  (* Probe again; the scale of the host time spent since the last probe. *)
  let next_scale () =
    let before = List.hd !probes and after = Summary.probe_ms () in
    probes := after :: !probes;
    Summary.speed_scale ~before ~after
  in
  let t0 = Span.now_ns () in
  let request, warm = w.Workloads.setup ~seed ~proc in
  let setup_s = Int64.to_float (Int64.sub (Span.now_ns ()) t0) /. 1e9 *. next_scale () in
  let untraced = ref [] and untraced_ref = ref [] and traced = ref [] and sims = ref [] in
  let failures = ref (match warm.Workloads.check with Ok () -> [] | Error e -> [ "warm-up: " ^ e ]) in
  let attempted = ref 1 in
  let sums = Hashtbl.create 64 in
  let i = ref 0 in
  let loop_s = ref 0.0 in
  Span.reset ();
  let loop_t0 = Unix.gettimeofday () in
  while !i < sim_requests || Unix.gettimeofday () -. loop_t0 < budget_s do
    let is_traced = trace && !i mod 3 = 1 in
    Span.set_request !i;
    Span.enabled := is_traced;
    incr attempted;
    let fail e = failures := Printf.sprintf "request %d: %s" !i e :: !failures in
    let c0 = Span.now_ns () in
    let outcome =
      match Fun.protect ~finally:(fun () -> Span.enabled := false) (fun () -> request !i ~traced:is_traced) with
      | exception e ->
          fail ("raised " ^ Printexc.to_string e);
          None
      | r ->
          (match r.Workloads.check with Ok () -> () | Error e -> fail e);
          Some r
    in
    let client_s = Int64.to_float (Int64.sub (Span.now_ns ()) c0) /. 1e9 in
    let scale = next_scale () in
    loop_s := !loop_s +. (client_s *. scale);
    Option.iter
      (fun r ->
        let ms = r.Workloads.wall_ns /. 1e6 in
        if !i < sim_requests then sims := r.Workloads.sim_us :: !sims;
        if is_traced then begin
          traced := ms :: !traced;
          List.iter (fun (k, v) -> add sums k v) (request_values r)
        end
        else if (not trace) || !i mod 3 = 0 then begin
          untraced := ms :: !untraced;
          untraced_ref := (ms *. scale) :: !untraced_ref
        end)
      outcome;
    incr i
  done;
  let spans = Span.spans () in
  Hashtbl.iter (fun k v -> add sums ("self:" ^ k) v) (self_ms_by_name spans);
  if trace then write_spans w ~seed ~proc spans;
  Workloads.cleanup ();
  {
    setup_s;
    loop_s = !loop_s;
    attempted = !attempted;
    failures = List.rev !failures;
    untraced = List.rev !untraced;
    untraced_ref = List.rev !untraced_ref;
    traced = List.rev !traced;
    sims = List.rev !sims;
    rss = vm_hwm_mb ();
    probe_ms = Summary.median (Array.of_list !probes);
    sums = Hashtbl.fold (fun k v acc -> (k, v) :: acc) sums [] |> List.sort compare;
  }
