let c () = (Profile.get ()).Profile.costs

let charge = Clock.charge

let per_byte bpc n = if bpc <= 0 then 0 else (n + bpc - 1) / bpc

let charge_user_copy n = Clock.charge (per_byte (c ()).Profile.user_copy_bpc n)

let charge_memcpy n = Clock.charge (per_byte (c ()).Profile.memcpy_bpc n)

let charge_zero_fill n = Clock.charge (per_byte (c ()).Profile.zero_fill_bpc n)

let charge_page_drop n = Clock.charge (n * (c ()).Profile.page_drop)

let charge_safety select = Clock.charge (select (c ()).Profile.safety)

(* Adding a descriptor to a virtqueue a busy device is already pulling
   from: a ring update plus a suppressed notify, no VM exit. Shared by
   the blk and net drivers so the suppression economy is charged
   uniformly. *)
let charge_ring_update () = Clock.charge 60
