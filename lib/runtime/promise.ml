type 'a t = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable value : ('a, exn) result option;
}

let create () = { mutex = Mutex.create (); cond = Condition.create (); value = None }

let complete t r =
  Sync.with_lock t.mutex (fun () ->
      match t.value with
      | Some _ -> invalid_arg "Promise.fulfil: already fulfilled"
      | None ->
        t.value <- Some r;
        Condition.broadcast t.cond)

let fulfil t v = complete t (Ok v)
let fail t e = complete t (Error e)

let await t =
  let r =
    Sync.with_lock t.mutex (fun () ->
        let rec wait () =
          match t.value with
          | Some r -> r
          | None ->
            Condition.wait t.cond t.mutex;
            wait ()
        in
        wait ())
  in
  match r with Ok v -> v | Error e -> raise e

let peek t =
  match Sync.with_lock t.mutex (fun () -> t.value) with
  | None -> None
  | Some (Ok v) -> Some v
  | Some (Error e) -> raise e
