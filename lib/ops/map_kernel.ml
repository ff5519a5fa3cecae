open Ascend

let tile_elems = 8192

let run ?(name = "map") ?(scratch = []) device ~inputs ~output ~f =
  let n = Global_tensor.length output in
  List.iter
    (fun gt ->
      if Global_tensor.length gt <> n then
        invalid_arg "Map_kernel.run: input/output length mismatch")
    inputs;
  if n = 0 then invalid_arg "Map_kernel.run: empty tensors";
  let blocks = Scheduler.blocks (Scheduler.plan device ~n) in
  let vpc = (Device.cost device).Cost_model.vec_per_core in
  let vchunk = Scan.Kernel_util.ceil_div n (blocks * vpc) in
  let body ctx =
    let i = Block.idx ctx in
    let schedule = Scan.Scan_core.current_schedule () in
    let ub_n = Scan.Kernel_util.fit_tile ~tile:tile_elems ~span:vchunk in
    let alloc v dt = Block.alloc ctx (Mem_kind.Ub v) dt ub_n in
    (* Input tiles ping-pong under the walker; the output and scratch
       tiles are produced and stored within one item, so one of each
       suffices. *)
    let per_vec =
      Array.init vpc (fun v ->
          let ins =
            Array.init 2 (fun _ ->
                List.map (fun gt -> alloc v (Global_tensor.dtype gt)) inputs)
          in
          let out = alloc v (Global_tensor.dtype output) in
          let scr = List.map (alloc v) scratch in
          (ins, out, scr))
    in
    for v = 0 to vpc - 1 do
      let lo = ((i * vpc) + v) * vchunk in
      let hi = min n (lo + vchunk) in
      if hi > lo then
        Scan.Scan_core.pipeline_tiles ctx ~schedule
          ~in_engine:(Engine.Vec_mte_in v) ~tile:tile_elems ~n:(hi - lo)
          ~load:(fun ~slot ~off ~len ->
            let ins, _, _ = per_vec.(v) in
            List.iter2
              (fun gt lt ->
                Scan.Scan_core.stage_in ctx ~schedule
                  ~engine:(Engine.Vec_mte_in v) ~src:gt ~src_off:(lo + off)
                  ~dst:lt ~len ())
              inputs ins.(slot))
          ~work:(fun ~slot ~off ~len ->
            let ins, out, scr = per_vec.(v) in
            f ctx ~vec:v ~ins:ins.(slot) ~out ~scratch:scr ~len;
            Mte.copy_out ctx ~engine:(Engine.Vec_mte_out v) ~src:out
              ~dst:output ~dst_off:(lo + off) ~len ())
          ()
    done
  in
  Launch.run ~name device ~blocks body
