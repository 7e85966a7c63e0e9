(* Metric collection and the output contract: every metric is printed
   as a "name value unit" line as soon as the run has it; then a
   "record" line carries the run's fingerprint with every metric it
   reached; and the last line of stdout is one JSON object

     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

   holding exactly the declared metrics of the mode (end-to-end with
   tracing off, per-layer with it on). A declared metric the run never
   reached, or reached in another unit, is reported as null, with
   [correct] false. *)

module Json = C4_obs.Json

(* The declared metrics of one mode, (name, unit), read from the
   benchmark definition (BENCHMARK.json at the checkout root): its
   [end_to_end] list with tracing off, its [per_layer] list with it on.
   The file is the one list of what a run reports and what makes it
   correct. *)
let declared_of_file path ~trace =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let key = if trace then "per_layer" else "end_to_end" in
  let field k j =
    match Option.bind (Json.member k j) Json.to_string_opt with
    | Some v -> v
    | None -> failwith (Printf.sprintf "%s: a %s entry lacks %S" path key k)
  in
  match Option.bind (Json.member key (Json.of_string text)) Json.to_list_opt with
  | Some (_ :: _ as l) -> List.map (fun j -> (field "name" j, field "unit" j)) l
  | _ -> failwith (Printf.sprintf "%s: no %s metrics" path key)

type t = {
  fingerprint : Json.t;
  declared : (string * string) list;
  values : (string, float * string) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable complete : bool;  (* every stage ran to its end *)
  lock : Mutex.t;
  mutable emitted : bool;
}

let create ~fingerprint ~declared =
  {
    fingerprint;
    declared;
    values = Hashtbl.create 64;
    attempted = 0;
    failed = 0;
    complete = false;
    lock = Mutex.create ();
    emitted = false;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Record and print one metric. *)
let metric t name unit v =
  locked t (fun () ->
      Hashtbl.replace t.values name (v, unit);
      Printf.printf "%-34s %14.3f %s\n%!" name v unit)

let note t line = locked t (fun () -> Printf.printf "%s\n%!" line)

let count t ~attempted ~failed =
  locked t (fun () ->
      t.attempted <- t.attempted + attempted;
      t.failed <- t.failed + failed)

(* Every stage ran, nothing failed, and every declared metric is a
   number in its declared unit. *)
let correct t =
  t.complete && t.failed = 0
  && List.for_all
       (fun (name, unit) ->
         match Hashtbl.find_opt t.values name with
         | Some (v, u) -> Float.is_finite v && u = unit
         | None -> false)
       t.declared

(* The final line, printed once (the watchdog and the normal exit path
   may race for it). *)
let emit t =
  locked t (fun () ->
      if not t.emitted then begin
        t.emitted <- true;
        let metrics =
          List.map
            (fun (name, unit) ->
              let v =
                match Hashtbl.find_opt t.values name with
                | Some (v, u) when u = unit -> Json.Float v
                | Some _ | None -> Json.Null
              in
              (name, Json.Obj [ ("value", v); ("unit", Json.Str unit) ]))
            t.declared
        in
        let all =
          Hashtbl.fold (fun name (v, unit) acc -> (name, v, unit) :: acc) t.values []
          |> List.sort compare
          |> List.map (fun (name, v, unit) ->
                 (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
        in
        print_endline
          ("record "
          ^ Json.to_string
              (Json.Obj
                 [
                   ("fingerprint", t.fingerprint);
                   ("attempted", Json.Int t.attempted);
                   ("failed", Json.Int t.failed);
                   ("metrics", Json.Obj all);
                 ]));
        print_endline
          (Json.to_string
             (Json.Obj
                [
                  ("correct", Json.Bool (correct t));
                  ("attempted", Json.Int (max 1 t.attempted));
                  ("failed", Json.Int t.failed);
                  ("metrics", Json.Obj metrics);
                ]));
        flush stdout
      end)
