/* wait4(2) for the benchmark: reaps a child and returns the rusage of
   its whole process tree (the child plus every descendant it reaped),
   which is how the server's CPU time and peak RSS are measured. */

#define _GNU_SOURCE
#include <errno.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

static double tv_s(struct timeval tv) {
  return (double)tv.tv_sec + (double)tv.tv_usec / 1e6;
}

/* pid -> (exit code or -signal, user+sys cpu seconds, maxrss kilobytes) */
value perfbench_wait4(value vpid) {
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  memset(&ru, 0, sizeof ru);
  caml_enter_blocking_section();
  do {
    r = wait4((pid_t)Int_val(vpid), &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith(strerror(errno));
  res = caml_alloc_tuple(3);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : -WTERMSIG(status)));
  Store_field(res, 1, caml_copy_double(tv_s(ru.ru_utime) + tv_s(ru.ru_stime)));
  Store_field(res, 2, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
