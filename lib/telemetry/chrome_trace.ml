(* Chrome trace_event JSON exporter.

   Emits the "JSON object format" variant ({"traceEvents":[...]}) with
   complete ("X") duration events, so a tracer's span log opens directly in
   chrome://tracing or Perfetto.  Timestamps are microseconds; the tracer's
   clock domain (wall or simulated seconds) carries through unchanged, which
   is exactly what we want — an executor trace laid out in simulated time.

   Span tracks map to Chrome thread ids and named tracks become thread_name
   metadata events, so executor traces show one lane per platform node. *)

let attr_json : Trace.attr_value -> Json.t = function
  | Trace.S s -> Json.Str s
  | Trace.I i -> Json.int i
  | Trace.F f -> Json.Num f
  | Trace.B b -> Json.Bool b

let span_json ~pid (s : Trace.span) =
  let us t = t *. 1e6 in
  (* attrs may carry shadowed duplicates (Trace.finish prepends); keep the
     first binding of each key, like Trace.attr does.  The synthetic
     "parent" arg below counts as already bound, so a user attribute of the
     same name cannot produce a duplicate JSON key. *)
  let attrs =
    List.rev
      (fst
         (List.fold_left
            (fun (acc, seen) (k, v) ->
              if List.mem_assoc k seen then (acc, seen)
              else ((k, attr_json v) :: acc, (k, ()) :: seen))
            ([], [ ("parent", ()) ])
            s.Trace.attrs))
  in
  let parent = match s.Trace.parent with Some p -> p | None -> -1 in
  Json.Obj
    [ ("name", Json.Str s.Trace.name); ("cat", Json.Str "everest");
      ("ph", Json.Str "X");
      ("ts", Json.Num (us s.Trace.start_s));
      ("dur", Json.Num (us (Trace.duration s)));
      ("pid", Json.int pid);
      ("tid", Json.int s.Trace.track);
      ("args", Json.Obj (("parent", Json.int parent) :: attrs)) ]

let meta_json ~pid ?tid name value =
  Json.Obj
    ([ ("name", Json.Str name); ("ph", Json.Str "M");
       ("pid", Json.int pid) ]
    @ (match tid with
      | Some t -> [ ("tid", Json.int t) ]
      | None -> [])
    @ [ ("args", Json.Obj [ ("name", Json.Str value) ]) ])

(* A Chrome-trace process: one tracer's spans (or a bare span log) under a
   pid, with named tracks as threads.  Multiple clock domains — wall-clock
   compile spans, simulated-time executor and orchestrator spans — export as
   separate processes of one trace file. *)
type proc = {
  pid : int;
  pname : string;
  tracks : (int * string) list;
  proc_spans : Trace.span list;
}

let of_tracer ?(pid = 1) ?(process_name = "everest") t =
  { pid; pname = process_name; tracks = Trace.named_tracks t;
    proc_spans = Trace.spans t }

let of_spans ?(pid = 1) ?(process_name = "everest") ?(tracks = []) spans =
  { pid; pname = process_name; tracks; proc_spans = spans }

(* Only finished spans are exported; one event per line. *)
let processes_to_string procs =
  let events =
    List.concat_map
      (fun p ->
        meta_json ~pid:p.pid "process_name" p.pname
        :: List.map
             (fun (track, n) -> meta_json ~pid:p.pid ~tid:track "thread_name" n)
             p.tracks
        @ List.filter_map
            (fun s ->
              if Trace.finished s then Some (span_json ~pid:p.pid s) else None)
            p.proc_spans)
      procs
  in
  Printf.sprintf "{\"traceEvents\":[%s],\"displayTimeUnit\":\"ms\"}"
    (String.concat ",\n" (List.map Json.to_string events))

let to_string ?pid ?process_name t =
  processes_to_string [ of_tracer ?pid ?process_name t ]

let write_processes path procs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (processes_to_string procs))

let write_file path ?pid ?process_name t =
  write_processes path [ of_tracer ?pid ?process_name t ]
