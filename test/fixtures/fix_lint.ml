(* Seeded repo-rule hits for the analyzer tests, each at a known line.
   The same names in a comment or a string are never flagged:
   Mutex.lock m; Obj.magic 0; print_endline "x"; compare a b *)

type t = { mutable x : int }

type frozen = { y : int }

let lock m = Mutex.lock m
let unlock m = Stdlib.Mutex.unlock m
let magic () : int = Obj.magic "s"
let say () = print_endline "hi"
let eq (a : t) b = a = b
let cmp a b = compare (a : t) b
let sort_all (l : t list) = List.sort compare l
let in_string = "Mutex.lock m; Obj.magic 0; print_endline; a = b; compare a b"
let field_ok (a : t) n = a.x = n
let literal_ok (n : t) = ignore n; { x = 3 }
let defhead_ok (w : t) = w.x <- 1
let immutable_ok (a : frozen) b = a = b
let differ (a : t) b = a <> b

;;
print_string "module-level expression"
(* nested (* Obj.magic *) still Mutex.lock m *)
let after_nested () = Sys.opaque_identity 26
let quoted = {q|Mutex.lock m; Obj.magic 0|q} and quote_char = '"' and escaped = "a\"b Obj.magic"
type 'a box = Obj of 'a
(* a string: " *) Obj.magic " still comment *) let live () = Sys.opaque_identity 29
