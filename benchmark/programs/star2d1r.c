for (t = 0; t < I_T; t++)
  for (i = 1; i <= I_S2; i++)
    for (j = 1; j <= I_S1; j++)
      A[(t+1)%2][i][j] = 0.5f * A[t%2][i][j] + 0.05f * A[t%2][i+1][j] + 0.1f * A[t%2][i-1][j] + 0.15f * A[t%2][i][j+1] + 0.2f * A[t%2][i][j-1];
