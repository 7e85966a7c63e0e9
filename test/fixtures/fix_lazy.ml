(* Seeded top-level-lazy: module-level lazies, which racing forces from
   two domains turn into CamlinternalLazy.Undefined. *)

let table = lazy (Array.make 4 0)

let per_call () = lazy 1

module M = struct
  let nested = lazy "x"
end
