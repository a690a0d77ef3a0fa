let eperm = 1
let enoent = 2
let esrch = 3
let eintr = 4
let eio = 5
let ebadf = 9
let echild = 10
let eagain = 11
let enomem = 12
let eacces = 13
let efault = 14
let ebusy = 16
let eexist = 17
let exdev = 18
let enotdir = 20
let eisdir = 21
let einval = 22
let enfile = 23
let emfile = 24
let enospc = 28
let espipe = 29
let erofs = 30
let epipe = 32
let enosys = 38
let enotempty = 39
let eloop = 40
let enotsock = 88
let emsgsize = 90
let eaddrinuse = 98
let econnrefused = 111
let enotconn = 107
let econnreset = 104
let eafnosupport = 97
let etimedout = 110

let names =
  [
    (eperm, "EPERM");
    (enoent, "ENOENT");
    (esrch, "ESRCH");
    (eintr, "EINTR");
    (eio, "EIO");
    (ebadf, "EBADF");
    (echild, "ECHILD");
    (eagain, "EAGAIN");
    (enomem, "ENOMEM");
    (eacces, "EACCES");
    (efault, "EFAULT");
    (ebusy, "EBUSY");
    (eexist, "EEXIST");
    (exdev, "EXDEV");
    (enotdir, "ENOTDIR");
    (eisdir, "EISDIR");
    (einval, "EINVAL");
    (enfile, "ENFILE");
    (emfile, "EMFILE");
    (enospc, "ENOSPC");
    (espipe, "ESPIPE");
    (erofs, "EROFS");
    (epipe, "EPIPE");
    (enosys, "ENOSYS");
    (enotempty, "ENOTEMPTY");
    (eloop, "ELOOP");
    (enotsock, "ENOTSOCK");
    (emsgsize, "EMSGSIZE");
    (eaddrinuse, "EADDRINUSE");
    (econnrefused, "ECONNREFUSED");
    (enotconn, "ENOTCONN");
    (econnreset, "ECONNRESET");
    (eafnosupport, "EAFNOSUPPORT");
    (etimedout, "ETIMEDOUT");
  ]

let name e = match List.assoc_opt e names with Some n -> n | None -> Printf.sprintf "E%d" e
