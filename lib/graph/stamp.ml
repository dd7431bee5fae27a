(* [cell.(i) = gen] iff [i] is a member.  Cells start at 0 and [gen]
   never is 0, so a fresh set is empty; on wrap the refill restores
   that invariant. *)
type t = { cell : int array; mutable gen : int }

let create n = { cell = Array.make n 0; gen = 1 }
let length t = Array.length t.cell

let clear t =
  if t.gen = max_int then begin
    Array.fill t.cell 0 (Array.length t.cell) 0;
    t.gen <- 1
  end
  else t.gen <- t.gen + 1

let mark t i = t.cell.(i) <- t.gen
let marked t i = t.cell.(i) = t.gen
