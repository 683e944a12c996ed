/* Native loops of topiccf, each the twin of a Python oracle with the same bits.
 * Python reaches them only through topiccf.lda.load_kernels, which compiles and
 * loads this file once per process; where it cannot, each caller runs the twin.
 *
 * topiccf_gibbs_sweep is one collapsed Gibbs sweep over a flat token stream,
 * the twin of topiccf.lda._sweep_python: the arithmetic and its order are the
 * Python sweep's. Build it without -ffast-math and with -ffp-contract=off: a
 * fused multiply-add in the topic weight would round differently.
 *
 * topiccf_log and topiccf_exp map libm's log and exp over an array, the twins
 * of mapping math.log and math.exp, which call the same libm functions. Link
 * libm after this source; -ffast-math would let the compiler call other
 * (vector) versions of them.
 *
 * topiccf_co_counts adds 1 to out[c] for each column c of the given rows of a
 * CSR array, row after row: the twin of topiccf.similarity._co_counts. Integer
 * counts only, so no rounding can differ.
 *
 * topiccf_write_ratings writes the csv rows ``user,item,<rating text>[,timestamp]``,
 * each ending in a newline, into out and returns their length: the twin of
 * topiccf.ingest._csv_rows, which formats them row by row. A rating's text is
 * copied from reprs, where Python's repr wrote it, so no float is formatted here;
 * ids and timestamps are int64 in decimal, INT64_MIN included.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

void topiccf_gibbs_sweep(long n, int T, const int32_t *words, const int32_t *doc_of,
                         int32_t *z, int32_t *n_dt, int32_t *n_wt, int32_t *n_t,
                         const double *u, double alpha, double beta, double vbeta,
                         double *cum)
{
    for (long i = 0; i < n; i++) {
        int32_t *row = n_dt + (long)doc_of[i] * T;
        int32_t *rw = n_wt + (long)words[i] * T;
        int t_old = z[i];
        row[t_old]--;
        rw[t_old]--;
        n_t[t_old]--;
        double total = 0.0;
        for (int t = 0; t < T; t++) {
            total += (row[t] + alpha) * (rw[t] + beta) / (n_t[t] + vbeta);
            cum[t] = total;
        }
        double r = u[i] * total;
        int t_new = 0;
        while (t_new < T - 1 && cum[t_new] < r)
            t_new++;
        z[i] = t_new;
        row[t_new]++;
        rw[t_new]++;
        n_t[t_new]++;
    }
}

void topiccf_log(long n, const double *x, double *out)
{
    for (long i = 0; i < n; i++)
        out[i] = log(x[i]);
}

void topiccf_exp(long n, const double *x, double *out)
{
    for (long i = 0; i < n; i++)
        out[i] = exp(x[i]);
}

void topiccf_co_counts(long n, const int32_t *rows, const int32_t *ptr, const int32_t *cols,
                       int64_t *out)
{
    for (long r = 0; r < n; r++)
        for (int32_t k = ptr[rows[r]]; k < ptr[rows[r] + 1]; k++)
            out[cols[k]]++;
}

static char *put_int64(char *p, int64_t v)
{
    char digits[20];
    uint64_t rest = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;  /* INT64_MIN too */
    int k = 0;
    if (v < 0)
        *p++ = '-';
    do {
        digits[k++] = (char)('0' + rest % 10);
        rest /= 10;
    } while (rest);
    while (k)
        *p++ = digits[--k];
    return p;
}

/* Row r's rating text is reprs[reprs_ptr[code[r]]:reprs_ptr[code[r] + 1]]; out must
 * hold n rows of up to 64 bytes plus the longest text. */
long topiccf_write_ratings(long n, const int64_t *user, const int64_t *item,
                           const int64_t *code, const uint8_t *reprs, const int64_t *reprs_ptr,
                           const int64_t *stamp, const uint8_t *stamped, uint8_t *out)
{
    char *p = (char *)out;
    for (long r = 0; r < n; r++) {
        p = put_int64(p, user[r]);
        *p++ = ',';
        p = put_int64(p, item[r]);
        *p++ = ',';
        int64_t start = reprs_ptr[code[r]], len = reprs_ptr[code[r] + 1] - start;
        memcpy(p, reprs + start, (size_t)len);
        p += len;
        if (stamped[r]) {
            *p++ = ',';
            p = put_int64(p, stamp[r]);
        }
        *p++ = '\n';
    }
    return (long)(p - (char *)out);
}
