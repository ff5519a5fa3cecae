(* In-memory span recorder for the benchmark's traced runs.

   Spans are recorded only around the benchmark's own calls into a
   layer's public functions; nothing inside the program is
   instrumented. When the recorder is off, [with_] is a direct call. *)

type t = {
  name : string;
  t0 : int64;  (** monotonic ns *)
  t1 : int64;
  id : int;
  parent : int;  (** -1 for a root span *)
  req : int;  (** request id, shared by every span of one request *)
  minor_words : float;  (** [Gc.quick_stat] deltas over the span *)
  major_words : float;
  major_collections : int;
}

let now_ns () = Monotonic_clock.now ()
let enabled = ref false
let recorded : t list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let current_req = ref 0

let reset () =
  recorded := [];
  next_id := 0;
  stack := []

let set_request r = current_req := r

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let g0 = Gc.quick_stat () in
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      let g1 = Gc.quick_stat () in
      stack := List.tl !stack;
      recorded :=
        {
          name;
          t0;
          t1;
          id;
          parent;
          req = !current_req;
          minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
          major_words = g1.Gc.major_words -. g0.Gc.major_words;
          major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
        }
        :: !recorded
    in
    Fun.protect ~finally:finish f
  end

let spans () = List.rev !recorded
let duration_ns s = Int64.to_float (Int64.sub s.t1 s.t0)

(* Self time of every span: its duration minus the part covered by its
   direct children. Children never overlap (one client, one thread),
   so the covered part is the sum of their durations. *)
let self_times spans =
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let c = Option.value (Hashtbl.find_opt child_ns s.parent) ~default:0.0 in
        Hashtbl.replace child_ns s.parent (c +. duration_ns s))
    spans;
  List.map
    (fun s ->
      let c = Option.value (Hashtbl.find_opt child_ns s.id) ~default:0.0 in
      (s, duration_ns s -. c))
    spans

let to_json spans =
  let open Obs.Jsonw in
  List
    (List.map
       (fun s ->
         Obj
           [
             ("name", String s.name);
             ("start_ns", Float (Int64.to_float s.t0));
             ("end_ns", Float (Int64.to_float s.t1));
             ("id", Int s.id);
             ("parent", Int s.parent);
             ("req", Int s.req);
             ("minor_words", Float s.minor_words);
             ("major_words", Float s.major_words);
             ("major_collections", Int s.major_collections);
           ])
       spans)
